package exp

import (
	"bytes"
	"strings"
	"testing"

	"deltacolor/local"
)

func runtimeRow(family string, n int, rps float64) RuntimeRow {
	return RuntimeRow{Family: family, N: n, Rounds: 8, Workers: 1, RoundsPerSec: rps}
}

// runtimeReport is a v4 report with reference score ref.
func runtimeReport(ref float64, rows ...RuntimeRow) *RuntimeReport {
	return &RuntimeReport{Header: Header{Schema: RuntimeSchema, RefScore: ref}, Rows: rows}
}

func TestCompareRuntime(t *testing.T) {
	base := runtimeReport(1,
		runtimeRow("path", 1000, 100),
		runtimeRow("path", 10000, 50),
		runtimeRow("rr4", 10000, 40),
	)

	ok := runtimeReport(1,
		runtimeRow("path", 1000, 10), // small-n regressions are not gated
		runtimeRow("path", 10000, 40),
		runtimeRow("rr4", 10000, 35),
	)
	if err := CompareRuntime(ok, base); err != nil {
		t.Fatalf("within tolerance, got %v", err)
	}

	bad := runtimeReport(1,
		runtimeRow("path", 10000, 30), // -40% at the largest common n
		runtimeRow("rr4", 10000, 39),
	)
	if err := CompareRuntime(bad, base); err == nil {
		t.Fatal("40% regression at largest n must fail")
	}

	// The bound is 30%: base path 10000 is 50, so the floor is 35.
	if err := CompareRuntime(runtimeReport(1, runtimeRow("path", 10000, 35.01)), base); err != nil {
		t.Fatalf("just inside the 30%% bound, got %v", err)
	}
	if err := CompareRuntime(runtimeReport(1, runtimeRow("path", 10000, 34.99)), base); err == nil {
		t.Fatal("just outside the 30% bound must fail")
	}

	// Both families regress: the error names both, in sorted order, and
	// the text does not depend on map iteration order.
	both := runtimeReport(1,
		runtimeRow("rr4", 10000, 20),
		runtimeRow("path", 10000, 20),
	)
	first := CompareRuntime(both, base)
	if first == nil {
		t.Fatal("two regressed families must fail")
	}
	msg := first.Error()
	if p, r := strings.Index(msg, "path"), strings.Index(msg, "rr4"); p < 0 || r < 0 || p > r {
		t.Fatalf("error must name path then rr4:\n%s", msg)
	}
	for i := 0; i < 200; i++ {
		if got := CompareRuntime(both, base).Error(); got != msg {
			t.Fatalf("call %d returned different text:\n%s\nvs\n%s", i, got, msg)
		}
	}

	disjoint := runtimeReport(1, runtimeRow("clique", 512, 5))
	if err := CompareRuntime(disjoint, base); err == nil {
		t.Fatal("no common rows must fail, not pass vacuously")
	}
}

func TestCompareMultiWorker(t *testing.T) {
	mpRow := func(n int, rps, rpsMP float64) RuntimeRow {
		r := runtimeRow("rr4", n, rps)
		r.RoundsPerSecMP = rpsMP
		r.WorkersMP = 4
		return r
	}
	base := runtimeReport(1,
		runtimeRow("rr4", 1000, 200),
		runtimeRow("rr4", 10000, 100),
		runtimeRow("path", 10000, 500), // other families are not gated
	)

	ok := runtimeReport(1,
		mpRow(1000, 190, 10), // small-n coordination overhead is not gated
		mpRow(10000, 95, 90), // within the 25% margin of base's 100
	)
	if err := CompareMultiWorker(ok, base); err != nil {
		t.Fatalf("within margin, got %v", err)
	}

	bad := runtimeReport(1,
		mpRow(10000, 95, 60), // -40% vs base's single-worker 100
	)
	if err := CompareMultiWorker(bad, base); err == nil {
		t.Fatal("multi-worker 40% slower than single-worker baseline must fail")
	}

	// The margin is 25%: the floor under base's 100 is 75.
	if err := CompareMultiWorker(runtimeReport(1, mpRow(10000, 95, 75.01)), base); err != nil {
		t.Fatalf("just inside the 25%% margin, got %v", err)
	}
	if err := CompareMultiWorker(runtimeReport(1, mpRow(10000, 95, 74.99)), base); err == nil {
		t.Fatal("just outside the 25% margin must fail")
	}

	noSweep := runtimeReport(1,
		runtimeRow("rr4", 10000, 95), // RoundsPerSecMP == 0
	)
	if err := CompareMultiWorker(noSweep, base); err == nil {
		t.Fatal("report without a populated sweep must fail, not pass vacuously")
	}
}

// TestCompareRuntimeRefNormalized checks the machine-independence of the
// delta gate: the comparison is on rounds/s ÷ RefScore, so a baseline
// from a 2× faster machine does not flag a same-speed-relative current
// run — and a real relative regression is still caught even when absolute
// rounds/s went up. A report without a reference score is rejected.
func TestRuntimeReportRoundTripAndV1Baseline(t *testing.T) {
	rep := runtimeReport(2.5, runtimeRow("path", 1000, 100))
	rep.GoMaxProcs = 1
	var buf bytes.Buffer
	if err := WriteDoc(&buf, rep); err != nil {
		t.Fatal(err)
	}
	got := &RuntimeReport{}
	if err := ReadDoc(&buf, RuntimeSchema, got); err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 1 || got.Rows[0].RoundsPerSec != 100 || got.RefScore != 2.5 {
		t.Fatalf("round trip lost data: %+v", got)
	}

	// A v1-era baseline (no workers column, no ref_score) is rejected by
	// the reader rather than compared on raw rounds/s.
	v1 := strings.NewReader(`{"schema":"deltacolor/bench-runtime/v1","gomaxprocs":1,
		"rows":[{"family":"path","n":1000,"rounds":16,"rounds_per_sec":90}]}`)
	if err := ReadDoc(v1, RuntimeSchema, &RuntimeReport{}); err == nil {
		t.Fatal("a v1 baseline must be rejected")
	}

	if err := ReadDoc(strings.NewReader(`{"schema":"bogus/v9"}`), RuntimeSchema, &RuntimeReport{}); err == nil {
		t.Fatal("unknown schema must be rejected")
	}
}

func TestCompareRuntimeRefNormalized(t *testing.T) {
	fast := runtimeReport(200, runtimeRow("path", 10000, 100)) // ratio 0.5
	// ratio 0.48: -4% relative, -52% absolute
	slowSameRatio := runtimeReport(100, runtimeRow("path", 10000, 48))
	if err := CompareRuntime(slowSameRatio, fast); err != nil {
		t.Fatalf("slower machine at the same ratio must pass: %v", err)
	}
	noRef := runtimeReport(0, fast.Rows...)
	if err := CompareRuntime(slowSameRatio, noRef); err == nil {
		t.Fatal("a baseline without ref_score must be rejected")
	}
	if err := CompareRuntime(noRef, fast); err == nil {
		t.Fatal("a current report without ref_score must be rejected")
	}
	// absolute +50%, ratio 0.15: -70% relative
	fastButRegressed := runtimeReport(1000, runtimeRow("path", 10000, 150))
	if err := CompareRuntime(fastButRegressed, fast); err == nil {
		t.Fatal("relative regression on a faster machine must fail despite higher absolute rounds/s")
	}
}

func TestReferenceScorePositive(t *testing.T) {
	if testing.Short() {
		t.Skip("reference loop takes ~1s")
	}
	if s := ReferenceScore(); s <= 0 {
		t.Fatalf("reference score = %v, want > 0", s)
	}
}

// TestStrictQuickE12AndE11 smoke-runs two experiment runners with the
// strict dead-send gate installed: the harness protocols must stay free
// of late dead sends (a panic here is a protocol regression).
func TestStrictQuickE12AndE11(t *testing.T) {
	defer local.SetStrictDeadSends(false)
	cfg := Config{Quick: true, Seed: 31, Strict: true}
	if rep := RuntimeThroughput(cfg); len(rep.Rows) == 0 {
		t.Fatal("E12 produced no rows")
	}
	if !local.StrictDeadSends() {
		t.Fatal("runner did not install the strict default")
	}
	if tb := E11Congest(cfg); len(tb.Rows) == 0 {
		t.Fatal("E11 produced no rows")
	}
}
