package exp

import (
	"bytes"
	"strings"
	"testing"
)

func overheadRow(family string, n int, level string, rps, over float64) OverheadRow {
	return OverheadRow{Family: family, N: n, Edges: 2 * n, Level: level, Rounds: 8,
		RoundsPerSec: rps, Overhead: over}
}

func TestOverheadReportRoundTrip(t *testing.T) {
	rep := &OverheadReport{Header: Header{Schema: OverheadSchema, GoMaxProcs: 1, Quick: true, Seed: 7},
		Rows: []OverheadRow{
			overheadRow("path", 10000, "off", 100, 0),
			overheadRow("path", 10000, "full", 95, 0.05),
		}}
	var buf bytes.Buffer
	if err := WriteDoc(&buf, rep); err != nil {
		t.Fatal(err)
	}
	got := &OverheadReport{}
	if err := ReadDoc(&buf, OverheadSchema, got); err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 2 || got.Rows[1].Overhead != 0.05 || got.Seed != 7 {
		t.Fatalf("round trip lost data: %+v", got)
	}
	if err := ReadDoc(strings.NewReader(`{"schema":"bogus/v9"}`), OverheadSchema, &OverheadReport{}); err == nil {
		t.Fatal("unknown schema must be rejected")
	}
}

func TestOverheadGate(t *testing.T) {
	ok := &OverheadReport{Header: Header{Schema: OverheadSchema}, Rows: []OverheadRow{
		overheadRow("path", 10000, "off", 100, 0),
		overheadRow("path", 10000, "full", 50, 0.50), // small n: not gated
		overheadRow("path", 100000, "off", 80, 0),
		overheadRow("path", 100000, "counters", 40, 0.50), // counters: not gated
		overheadRow("path", 100000, "full", 73, 0.0875),
		overheadRow("rr4", 100000, "off", 60, 0),
		overheadRow("rr4", 100000, "full", 58, 1.0/30),
	}}
	if err := OverheadGate(ok); err != nil {
		t.Fatalf("within the 10%% budget at largest n, got %v", err)
	}

	bad := &OverheadReport{Header: Header{Schema: OverheadSchema}, Rows: []OverheadRow{
		overheadRow("path", 100000, "off", 80, 0),
		overheadRow("path", 100000, "full", 70, 0.125), // -12.5%
	}}
	if err := OverheadGate(bad); err == nil {
		t.Fatal("12.5% overhead at largest n must fail the gate")
	}

	// The budget is 10%: the floor under off's 100 is 90.
	for _, tc := range []struct {
		full float64
		pass bool
	}{{90.01, true}, {89.99, false}} {
		rep := &OverheadReport{Header: Header{Schema: OverheadSchema}, Rows: []OverheadRow{
			overheadRow("rr4", 100000, "off", 100, 0),
			overheadRow("rr4", 100000, "full", tc.full, 1-tc.full/100),
		}}
		if err := OverheadGate(rep); (err == nil) != tc.pass {
			t.Fatalf("full %v vs off 100: gate error %v, want pass=%v", tc.full, err, tc.pass)
		}
	}

	// Two families over budget: the error names both, in sorted order,
	// and the text does not depend on map iteration order.
	both := &OverheadReport{Header: Header{Schema: OverheadSchema}, Rows: []OverheadRow{
		overheadRow("rr4", 100000, "off", 100, 0),
		overheadRow("rr4", 100000, "full", 50, 0.5),
		overheadRow("path", 100000, "off", 100, 0),
		overheadRow("path", 100000, "full", 50, 0.5),
	}}
	first := OverheadGate(both)
	if first == nil {
		t.Fatal("two families over budget must fail")
	}
	msg := first.Error()
	if p, r := strings.Index(msg, "path"), strings.Index(msg, "rr4"); p < 0 || r < 0 || p > r {
		t.Fatalf("error must name path then rr4:\n%s", msg)
	}
	for i := 0; i < 200; i++ {
		if got := OverheadGate(both).Error(); got != msg {
			t.Fatalf("call %d returned different text:\n%s\nvs\n%s", i, got, msg)
		}
	}

	vacuous := &OverheadReport{Header: Header{Schema: OverheadSchema}, Rows: []OverheadRow{
		overheadRow("path", 100000, "off", 80, 0),
		overheadRow("path", 10000, "full", 70, 0), // no common largest n
	}}
	if err := OverheadGate(vacuous); err == nil {
		t.Fatal("report with no off/full pair must fail, not pass vacuously")
	}
}

// TestTracerOverheadSmoke runs the E15 measurement at a tiny scale and
// checks the report's shape: every (family, size) case yields one row per
// trace level, off rows have zero overhead, and throughputs are positive.
func TestTracerOverheadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("E15 measurement is slow")
	}
	rep := TracerOverhead(Config{Quick: true, Seed: 9})
	if rep.Schema != OverheadSchema || !rep.Quick {
		t.Fatalf("report header: %+v", rep)
	}
	// Quick mode: 2 sizes x 3 heartbeat families x 3 levels, plus the
	// single-size rr4-gather case x 3 levels.
	if len(rep.Rows) != 21 {
		t.Fatalf("rows = %d, want 21", len(rep.Rows))
	}
	sawGather := false
	for _, r := range rep.Rows {
		if r.Family == "rr4-gather" {
			sawGather = true
		}
	}
	if !sawGather {
		t.Fatal("report carries no rr4-gather rows; the gate would not cover the gather kernel")
	}
	for _, r := range rep.Rows {
		if r.RoundsPerSec <= 0 {
			t.Fatalf("row %+v has non-positive throughput", r)
		}
		if r.Level == "off" && r.Overhead != 0 {
			t.Fatalf("off row carries overhead %v", r.Overhead)
		}
	}
}
