package exp

// E14: cache-locality relabeling ablation. E12 showed rr4 delivery is
// cache-miss bound: with random node labels every delivered message
// lands in a cold cache line. NewNetwork now relabels nodes internally
// (reverse Cuthill–McKee, graph.LocalityOrder) so the engine tables are
// walked near-sequentially; E14 measures exactly that effect by running
// the E12 heartbeat workload with relabeling on and off (the
// local.SetRelabel ablation hook) across graph families whose external
// labelings range from already-sequential (path, grid) to fully random
// (rr4). cmd/benchsuite serializes the report (BENCH_locality.json) and
// LocalityGate turns it into a CI check: relabeling must never lose to
// the ablation on rr4 at the largest measured scale.

import (
	"fmt"
	"runtime"
	"time"

	"deltacolor/local"
)

// LocalitySchema identifies the BENCH_locality.json layout.
const LocalitySchema = "deltacolor/bench-locality/v1"

// LocalityRow is one (family, n, relabel) measurement.
type LocalityRow struct {
	Family         string  `json:"family"`
	N              int     `json:"n"`
	Edges          int     `json:"edges"`
	Delta          int     `json:"delta"`
	Relabel        bool    `json:"relabel"`
	Rounds         int     `json:"rounds"`
	BuildMillis    float64 `json:"build_ms"` // NewNetwork incl. the order pass
	RunMillis      float64 `json:"run_ms"`   // full run wall time, 1 worker
	RoundsPerSec   float64 `json:"rounds_per_sec"`
	AllocsPerRound float64 `json:"allocs_per_round"`
}

// LocalityReport is the full E14 output, serialized to BENCH_locality.json.
type LocalityReport struct {
	Header
	Rows []LocalityRow `json:"rows"`
}

// LocalityAblation measures heartbeat throughput with relabeling off and
// on for every (family, n) case, single-worker for host comparability.
// The package-wide relabel default is restored before returning.
func LocalityAblation(cfg Config) *LocalityReport {
	cfg.install()
	prev := local.RelabelEnabled()
	defer local.SetRelabel(prev)
	rep := &LocalityReport{Header: cfg.docHeader(LocalitySchema)}
	type c struct {
		family string
		n      int
	}
	var cases []c
	rounds := 16
	sizes := []int{10_000, 100_000, 1_000_000}
	if cfg.Quick {
		// Quick mode still reaches n = 100k: below that the whole working
		// set fits in cache, relabeling measures as noise, and the gate
		// would flake. At 100k the rr4 effect is reliably >1.1x.
		rounds = 8
		sizes = []int{10_000, 100_000}
	}
	// path and grid are labeled near-sequentially already, so they measure
	// the relabeling pass's overhead on inputs that are already local.
	for _, n := range sizes {
		cases = append(cases, c{"path", n}, c{"rr4", n}, c{"grid", n})
	}
	for _, tc := range cases {
		g := runtimeCase(tc.family, tc.n, cfg.Seed)
		for _, rl := range []bool{false, true} {
			local.SetRelabel(rl)
			t0 := time.Now()
			net := local.NewNetwork(g, cfg.Seed)
			build := time.Since(t0)
			net.SetWorkers(1)

			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			runRuntimeWorkload(tc.family, net, rounds)
			runtime.ReadMemStats(&after)

			st := net.LastRunStats()
			row := LocalityRow{
				Family:       tc.family,
				N:            g.N(), // actual size (grid rounds n to a square)
				Edges:        g.M(),
				Delta:        g.MaxDegree(),
				Relabel:      rl,
				Rounds:       st.Rounds,
				BuildMillis:  float64(build.Microseconds()) / 1000,
				RunMillis:    float64(st.WallTime.Microseconds()) / 1000,
				RoundsPerSec: st.RoundsPerSec,
			}
			if st.Rounds > 0 {
				row.AllocsPerRound = float64(after.Mallocs-before.Mallocs) / float64(st.Rounds)
			}
			rep.Rows = append(rep.Rows, row)
		}
	}
	return rep
}

// Table renders the report as the E14 table, pairing each relabel-on row
// with its ablation to show the speedup.
func (rep *LocalityReport) Table() *Table {
	t := &Table{
		ID:     "E14",
		Title:  "Cache-locality relabeling ablation (E12 heartbeat workload, relabel off vs on)",
		Header: []string{"family", "n", "edges", "relabel", "build ms", "run ms", "rounds/s", "allocs/round", "speedup"},
	}
	off := map[string]LocalityRow{}
	for _, r := range rep.Rows {
		key := fmt.Sprintf("%s/%d", r.Family, r.N)
		if !r.Relabel {
			off[key] = r
		}
		speed := "-"
		if r.Relabel {
			if o, ok := off[key]; ok && o.RoundsPerSec > 0 {
				speed = fmt.Sprintf("%.2fx", r.RoundsPerSec/o.RoundsPerSec)
			}
		}
		t.AddRow(r.Family, itoa(r.N), itoa(r.Edges), fmt.Sprintf("%v", r.Relabel),
			f2(r.BuildMillis), f2(r.RunMillis), f2(r.RoundsPerSec),
			fmt.Sprintf("%.0f", r.AllocsPerRound), speed)
	}
	t.AddNote("GOMAXPROCS=%d, quick=%v; one worker throughout. relabel=false ablates the reverse Cuthill–McKee "+
		"internal ordering (local.SetRelabel), so the off/on pairs isolate the cache-locality effect: rr4's external "+
		"labels are random (every delivery a cold line without relabeling), path/grid are already near-sequential "+
		"and bound the pass's overhead.", rep.GoMaxProcs, rep.Quick)
	return t
}

// localityGateTolerance absorbs run-to-run noise in the gate: at quick
// scale the whole working set can fit in cache, so "must not regress" is
// enforced with a 10% measurement margin rather than a strict >=.
const localityGateTolerance = 0.10

// LocalityGate checks the report's central claim: on the rr4 family at
// the largest measured n, relabeling on must not deliver fewer rounds/s
// than the ablation (modulo the noise tolerance). It returns an error
// describing the regression, or when the report carries no rr4 pair at
// all — a vacuous gate would defeat the CI step.
func LocalityGate(rep *LocalityReport) error {
	var on, off *LocalityRow
	for i := range rep.Rows {
		r := &rep.Rows[i]
		if r.Family != "rr4" {
			continue
		}
		if r.Relabel {
			if on == nil || r.N > on.N {
				on = r
			}
		} else {
			if off == nil || r.N > off.N {
				off = r
			}
		}
	}
	if on == nil || off == nil || on.N != off.N {
		return fmt.Errorf("locality gate: report has no rr4 relabel-on/off pair at a common n")
	}
	floor := off.RoundsPerSec * (1 - localityGateTolerance)
	if on.RoundsPerSec < floor {
		return fmt.Errorf("locality gate: rr4 n=%d relabel-on %.2f rounds/s regressed vs relabel-off %.2f (floor %.2f at -%.0f%%)",
			on.N, on.RoundsPerSec, off.RoundsPerSec, floor, localityGateTolerance*100)
	}
	return nil
}
