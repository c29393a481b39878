package exp

import (
	"bytes"
	"strings"
	"testing"

	"deltacolor/local"
)

func localityRow(family string, n int, relabel bool, rps float64) LocalityRow {
	return LocalityRow{Family: family, N: n, Relabel: relabel, Rounds: 8, RoundsPerSec: rps}
}

func TestLocalityGate(t *testing.T) {
	ok := &LocalityReport{Header: Header{Schema: LocalitySchema}, Rows: []LocalityRow{
		localityRow("rr4", 1000, false, 50), // smaller n is not gated
		localityRow("rr4", 1000, true, 10),
		localityRow("rr4", 10000, false, 40),
		localityRow("rr4", 10000, true, 38), // within the noise tolerance
		localityRow("path", 10000, false, 100),
		localityRow("path", 10000, true, 60), // non-rr4 families are not gated
	}}
	if err := LocalityGate(ok); err != nil {
		t.Fatalf("within tolerance, got %v", err)
	}

	bad := &LocalityReport{Header: Header{Schema: LocalitySchema}, Rows: []LocalityRow{
		localityRow("rr4", 10000, false, 40),
		localityRow("rr4", 10000, true, 20), // -50%: relabeling lost badly
	}}
	if err := LocalityGate(bad); err == nil {
		t.Fatal("relabel-on regression must fail the gate")
	}

	// The tolerance is 10%: the floor under relabel-off's 100 is 90.
	for _, tc := range []struct {
		on   float64
		pass bool
	}{{90.01, true}, {89.99, false}} {
		rep := &LocalityReport{Header: Header{Schema: LocalitySchema}, Rows: []LocalityRow{
			localityRow("rr4", 10000, false, 100),
			localityRow("rr4", 10000, true, tc.on),
		}}
		if err := LocalityGate(rep); (err == nil) != tc.pass {
			t.Fatalf("relabel-on %v vs off 100: gate error %v, want pass=%v", tc.on, err, tc.pass)
		}
	}

	vacuous := &LocalityReport{Header: Header{Schema: LocalitySchema}, Rows: []LocalityRow{
		localityRow("path", 10000, false, 40),
		localityRow("path", 10000, true, 40),
	}}
	if err := LocalityGate(vacuous); err == nil {
		t.Fatal("a report without an rr4 pair must fail, not pass vacuously")
	}

	unpaired := &LocalityReport{Header: Header{Schema: LocalitySchema}, Rows: []LocalityRow{
		localityRow("rr4", 10000, true, 40),
		localityRow("rr4", 1000, false, 400),
	}}
	if err := LocalityGate(unpaired); err == nil {
		t.Fatal("rr4 rows at different n are not a pair; the gate must fail")
	}
}

func TestLocalityReportRoundTrip(t *testing.T) {
	rep := &LocalityReport{Header: Header{Schema: LocalitySchema, GoMaxProcs: 1}, Rows: []LocalityRow{
		localityRow("rr4", 1000, true, 123),
	}}
	var buf bytes.Buffer
	if err := WriteDoc(&buf, rep); err != nil {
		t.Fatal(err)
	}
	got := &LocalityReport{}
	if err := ReadDoc(&buf, LocalitySchema, got); err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 1 || got.Rows[0].RoundsPerSec != 123 || !got.Rows[0].Relabel {
		t.Fatalf("round trip lost data: %+v", got)
	}
	if err := ReadDoc(strings.NewReader(`{"schema":"bogus/v9"}`), LocalitySchema, &LocalityReport{}); err == nil {
		t.Fatal("unknown schema must be rejected")
	}
}

// TestQuickE14RestoresRelabelDefault: the ablation runner toggles the
// package-wide relabel default; it must leave it as it found it and
// produce paired rows for every case.
func TestQuickE14RestoresRelabelDefault(t *testing.T) {
	if !local.RelabelEnabled() {
		t.Fatal("premise: relabeling should be the package default")
	}
	rep := LocalityAblation(Config{Quick: true, Seed: 17})
	if !local.RelabelEnabled() {
		t.Fatal("E14 left relabeling ablated")
	}
	if len(rep.Rows)%2 != 0 || len(rep.Rows) == 0 {
		t.Fatalf("E14 rows must come in off/on pairs, got %d", len(rep.Rows))
	}
	for i := 0; i < len(rep.Rows); i += 2 {
		off, on := rep.Rows[i], rep.Rows[i+1]
		if off.Relabel || !on.Relabel || off.Family != on.Family || off.N != on.N {
			t.Fatalf("rows %d/%d are not an off/on pair: %+v / %+v", i, i+1, off, on)
		}
		if off.Rounds != on.Rounds {
			t.Fatalf("%s n=%d: rounds differ between ablation and relabeling (%d vs %d)",
				off.Family, off.N, off.Rounds, on.Rounds)
		}
	}
	if err := LocalityGate(rep); err != nil {
		t.Logf("quick-scale gate note (not fatal at smoke scale): %v", err)
	}
}
