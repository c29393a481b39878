package exp

// E15: tracer overhead. PR 6 put a Tracer into the round engine's hot
// loop (per-round phase timing, lane counters, the ring buffer), guarded
// so a disabled tracer costs one nil check per phase. E15 verifies the
// guard empirically: the E12 heartbeat workload runs with tracing off,
// counters-only, and full across path/rr4/grid, and the throughput ratio
// against the untraced run is the overhead. cmd/benchsuite serializes the
// report (BENCH_overhead.json) and OverheadGate turns the tentpole's
// budget into a CI check: full tracing may cost at most 10% throughput on
// every family at the largest measured n.

import (
	"errors"
	"fmt"
	"maps"
	"slices"

	"deltacolor/local"
)

// OverheadSchema identifies the BENCH_overhead.json layout.
const OverheadSchema = "deltacolor/bench-overhead/v1"

// OverheadRow is one (family, n, level) measurement. RoundsPerSec is the
// best of overheadReps runs (per-rep variance on small cases would
// otherwise dominate the effect being measured); Overhead is the relative
// throughput cost against the same case's trace-off row.
type OverheadRow struct {
	Family       string  `json:"family"`
	N            int     `json:"n"`
	Edges        int     `json:"edges"`
	Level        string  `json:"level"` // "off" | "counters" | "full"
	Rounds       int     `json:"rounds"`
	RoundsPerSec float64 `json:"rounds_per_sec"`
	Overhead     float64 `json:"overhead"` // 1 - rps/rps_off; 0 for the off row
}

// OverheadReport is the full E15 output, serialized to BENCH_overhead.json.
type OverheadReport struct {
	Header
	Rows []OverheadRow `json:"rows"`
}

// overheadReps is the measurement repetition count per (case, level).
// Reps are interleaved across levels (off, counters, full, off, ...) and
// each level keeps its best, so a system-wide slow episode degrades every
// level equally instead of biasing whichever one it landed on — the
// comparison is percent-scale, well below this container's run-to-run
// variance on a single measurement.
const overheadReps = 7

var overheadLevels = []struct {
	name  string
	level local.TraceLevel
}{
	{"off", local.TraceOff},
	{"counters", local.TraceCounters},
	{"full", local.TraceFull},
}

// TracerOverhead measures heartbeat throughput at every trace level for
// every (family, n) case, single-worker for host comparability. The
// tracer is attached per network (SetTracer), so the process-wide default
// is untouched.
func TracerOverhead(cfg Config) *OverheadReport {
	cfg.install()
	rep := &OverheadReport{Header: cfg.docHeader(OverheadSchema)}
	type c struct {
		family string
		n      int
	}
	// Quick mode keeps the full 16-round runs: at 100k a run is still
	// <100ms, and halving it once made the strict gate flake — a single
	// scheduler hiccup inside a ~40ms window reads as a 15% "overhead".
	var cases []c
	rounds := 16
	sizes := []int{10_000, 100_000, 1_000_000}
	gatherSizes := []int{10_000, 100_000}
	if cfg.Quick {
		sizes = []int{10_000, 100_000}
		gatherSizes = []int{10_000}
	}
	for _, n := range sizes {
		cases = append(cases, c{"path", n}, c{"rr4", n}, c{"grid", n})
	}
	// The gate also covers the gather kernel: the tracer sits in the same
	// engine loop whether the payloads are int heartbeats or record ball
	// frontiers, and the record lane must meet the same 10% budget.
	// Smaller sizes than the heartbeat families: one (case, level) cell is
	// overheadReps whole gathers, and the comparison is percent-scale
	// either way.
	for _, n := range gatherSizes {
		cases = append(cases, c{"rr4-gather", n})
	}
	for _, tc := range cases {
		g := runtimeCase(tc.family, tc.n, cfg.Seed)
		net := local.NewNetwork(g, cfg.Seed)
		net.SetWorkers(1)
		// Warm-up run: the first run on a fresh network pays cold page
		// faults and branch-predictor training that would all be billed to
		// whichever level happens to run first.
		runRuntimeWorkload(tc.family, net, rounds)
		tracers := make([]*local.Tracer, len(overheadLevels))
		best := make([]float64, len(overheadLevels))
		var st local.RunStats
		for li, lv := range overheadLevels {
			if lv.level > local.TraceOff {
				tracers[li] = local.NewTracer(lv.level, 0)
			}
		}
		for r := 0; r < overheadReps; r++ {
			for li := range overheadLevels {
				net.SetTracer(tracers[li])
				runRuntimeWorkload(tc.family, net, rounds)
				if s := net.LastRunStats(); s.RoundsPerSec > best[li] {
					best[li] = s.RoundsPerSec
					st = s
				}
			}
		}
		net.SetTracer(nil)
		for li, lv := range overheadLevels {
			row := OverheadRow{
				Family:       tc.family,
				N:            g.N(), // actual size (grid rounds n to a square)
				Edges:        g.M(),
				Level:        lv.name,
				Rounds:       st.Rounds,
				RoundsPerSec: best[li],
			}
			if li > 0 && best[0] > 0 {
				row.Overhead = 1 - best[li]/best[0]
			}
			rep.Rows = append(rep.Rows, row)
		}
	}
	return rep
}

// Table renders the report as the E15 table.
func (rep *OverheadReport) Table() *Table {
	t := &Table{
		ID:     "E15",
		Title:  "Tracer overhead (heartbeat and stepped-gather workloads: tracing off vs counters-only vs full)",
		Header: []string{"family", "n", "edges", "level", "rounds/s", "overhead"},
	}
	for _, r := range rep.Rows {
		ov := "-"
		if r.Level != "off" {
			ov = fmt.Sprintf("%+.1f%%", r.Overhead*100)
		}
		t.AddRow(r.Family, itoa(r.N), itoa(r.Edges), r.Level, f2(r.RoundsPerSec), ov)
	}
	t.AddNote("GOMAXPROCS=%d, quick=%v; one worker, best of %d reps per level. counters-only adds two integer "+
		"adds per sending batch; full additionally takes %d time.Now calls per round and writes one preallocated "+
		"ring record, so neither level allocates per round. The strict gate requires full <= %.0f%% overhead at "+
		"the largest n of every family.", rep.GoMaxProcs, rep.Quick, overheadReps, 3, overheadGateTolerance*100)
	return t
}

// overheadGateTolerance is the tentpole's tracing budget: full tracing
// may cost at most this fraction of untraced throughput.
const overheadGateTolerance = 0.10

// OverheadGate checks the tracing budget: for every family, at the
// largest measured n, the full-trace row's throughput must be within
// overheadGateTolerance of the off row's. It returns an error naming
// every family over budget in sorted order, or one when the report carries
// no off/full pair at all — a vacuous gate would defeat the CI step.
func OverheadGate(rep *OverheadReport) error {
	type pair struct{ off, full *OverheadRow }
	largest := map[string]*pair{}
	for i := range rep.Rows {
		r := &rep.Rows[i]
		p := largest[r.Family]
		if p == nil {
			p = &pair{}
			largest[r.Family] = p
		}
		switch r.Level {
		case "off":
			if p.off == nil || r.N > p.off.N {
				p.off = r
			}
		case "full":
			if p.full == nil || r.N > p.full.N {
				p.full = r
			}
		}
	}
	checked := 0
	var errs []error
	for _, family := range slices.Sorted(maps.Keys(largest)) {
		p := largest[family]
		if p.off == nil || p.full == nil || p.off.N != p.full.N {
			continue
		}
		checked++
		floor := p.off.RoundsPerSec * (1 - overheadGateTolerance)
		if p.full.RoundsPerSec < floor {
			errs = append(errs, fmt.Errorf("tracer overhead gate: %s n=%d full tracing %.2f rounds/s vs off %.2f (floor %.2f at -%.0f%%)",
				family, p.full.N, p.full.RoundsPerSec, p.off.RoundsPerSec, floor, overheadGateTolerance*100))
		}
	}
	if checked == 0 {
		return fmt.Errorf("tracer overhead gate: report has no off/full pair at a common n")
	}
	return errors.Join(errs...)
}
