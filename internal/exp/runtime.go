package exp

// E12: runtime throughput. Unlike E1–E11, which measure the *algorithms*
// (rounds, messages), E12 measures the *simulator*: how fast the batched
// LOCAL round engine constructs networks and turns rounds over at scale.
// The workload is a fixed-length heartbeat protocol (every node broadcasts
// a small integer each round through the int fast path and folds in what
// it hears), so the numbers isolate scheduler cost from algorithmic cost.
// cmd/benchsuite serializes the report to BENCH_runtime.json so the
// performance trajectory of the runtime is tracked across PRs, and
// CompareRuntime turns a pair of reports into a CI regression gate.

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"deltacolor/graph"
	"deltacolor/graph/gen"
	"deltacolor/local"
)

// RuntimeSchema identifies the BENCH_runtime.json layout: single-worker
// rounds/s (machine-comparable), the reference-loop score that makes the
// CI delta gate machine-independent (see ReferenceScore), the gather
// workload family, the per-row max message size (from an untimed
// instrumented re-run), the ns/node-round normalization, and an
// always-populated GOMAXPROCS sweep (on a single-CPU host the sweep runs
// two workers on the one CPU, measuring coordination overhead instead of
// speedup). Reports written before the tiled delivery kernel and the
// blocking gather were deleted also carry rr4-tiled and
// rr4-gather-blocking rows; no current run produces them, so
// CompareRuntime never gates on them.
const RuntimeSchema = "deltacolor/bench-runtime/v4"

// RuntimeRow is one (family, n) measurement.
type RuntimeRow struct {
	Family         string  `json:"family"`
	N              int     `json:"n"`
	Edges          int     `json:"edges"`
	Delta          int     `json:"delta"`
	Rounds         int     `json:"rounds"`
	BuildMillis    float64 `json:"build_ms"` // NewNetwork construction
	RunMillis      float64 `json:"run_ms"`   // full run wall time, 1 worker
	Workers        int     `json:"workers"`  // worker count of the main measurement (always 1)
	RoundsPerSec   float64 `json:"rounds_per_sec"`
	AllocsPerRound float64 `json:"allocs_per_round"`

	// NsPerNodeRound normalizes the timed run to nanoseconds per
	// node-round (run_ms · 10⁶ ÷ (rounds · n)) — the unit the stepped-port
	// acceptance is stated in: the gather families must stay within 2x of
	// the int-path heartbeat on the same graph at the same n.
	NsPerNodeRound float64 `json:"ns_per_node_round"`

	// MaxMsgBytes is the largest single message of the workload, 4 bytes
	// per word, measured on a separate untimed run with message stats
	// enabled (the size accounting would pollute the timed run). 4 for
	// the int-path heartbeat.
	MaxMsgBytes int `json:"max_msg_bytes"`

	// GOMAXPROCS sweep: the same run with a worker per CPU — or, on a
	// single-CPU host, with two workers time-slicing the one CPU, so the
	// column records coordination overhead rather than staying empty.
	WorkersMP      int     `json:"workers_mp,omitempty"`
	RoundsPerSecMP float64 `json:"rounds_per_sec_mp,omitempty"`
}

// RuntimeReport is the full E12 output, serialized to BENCH_runtime.json.
// Its header's RefScore is measured alongside the rows, so CompareRuntime
// gates on rounds/s ÷ RefScore, a machine-independent ratio.
type RuntimeReport struct {
	Header
	Rows []RuntimeRow `json:"rows"`
}

// refLoopWords sizes the reference loop's walk array: 16 MiB of int32,
// past any LLC, so the loop mixes cache-missing loads with ALU work in
// roughly the engine's own proportions.
const refLoopWords = 1 << 22

// refLoopIters is the fixed iteration count one timed rep executes.
const refLoopIters = 1 << 22

// ReferenceScore measures the host with a fixed single-threaded loop
// (xorshift index generation + a dependent load/store walk over a 16 MiB
// array) and returns its iterations/s, best of three reps. The loop is
// engine-independent: it never changes with the repository, so the ratio
// rounds/s ÷ ReferenceScore is comparable across machines and lets the CI
// benchmark-delta gate stop depending on the runner's absolute speed.
func ReferenceScore() float64 {
	buf := make([]int32, refLoopWords)
	best := 0.0
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		x := uint32(0x9e3779b9)
		var acc int32
		for i := 0; i < refLoopIters; i++ {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			j := x & (refLoopWords - 1)
			acc += buf[j]
			buf[j] = acc ^ int32(x)
		}
		el := time.Since(t0).Seconds()
		if el <= 0 {
			continue
		}
		if s := float64(refLoopIters) / el; s > best {
			best = s
		}
	}
	return best
}

// heartbeat is the uniform scheduler workload: r rounds of broadcast+fold
// over the small-integer fast path, in the executor's native stepped form
// (per-node state is one struct in a flat array — no stacks, no boxing).
// Only its rounds are measured, so it has no output.
func heartbeat(r int) local.Stepped[heartbeatState] {
	return local.Stepped[heartbeatState]{
		Init: func(ctx *local.Ctx, s *heartbeatState) bool {
			s.sum = ctx.ID() & 0xff
			if r == 0 {
				return false
			}
			ctx.BroadcastInt(s.sum & 0xff)
			return true
		},
		Step: func(ctx *local.Ctx, s *heartbeatState) bool {
			for p := 0; p < ctx.Degree(); p++ {
				if m, ok := ctx.RecvInt(p); ok {
					s.sum += m
				}
			}
			s.round++
			if s.round == r {
				return false
			}
			ctx.BroadcastInt(s.sum & 0xff)
			return true
		},
	}
}

type heartbeatState struct {
	sum   int
	round int
}

// runtimeCase builds one graph family instance for E12, E14 and E15. The
// gather family reuses the rr4 expander — the graph with no exploitable
// label order, where delivery locality and payload shape dominate. The
// rr4 labels are random by construction; path and grid are generated with
// sequential/row-major labels. A grid case rounds n to the nearest square.
func runtimeCase(family string, n int, seed int64) *graph.G {
	switch family {
	case "path":
		return gen.Path(n)
	case "rr4", "rr4-gather":
		return gen.MustRandomRegular(rand.New(rand.NewSource(seed)), n, 4)
	case "grid":
		side := int(math.Round(math.Sqrt(float64(n))))
		return gen.Grid(side, side)
	case "clique":
		return gen.Complete(n)
	default:
		panic("unknown runtime family " + family)
	}
}

// runtimeGatherRadius is the gather families' ball radius: radius 2 keeps
// the per-node ball ~Δ² nodes (the shape the DCC phases gather at), small
// enough to hold a million balls in memory.
const runtimeGatherRadius = 2

// runtimeReps is the timed-measurement repetition count per case (best
// rep wins, for both the single-worker and the sweep measurement). The
// gather families allocate their output inside the timed window, so
// single-shot timings swing with GC landing; the delta gate compares
// quick CI runs against the checked-in full sweep and needs both sides
// at their repeatable best.
const runtimeReps = 3

// runRuntimeWorkload executes one family's workload on a prepared
// network: the int-path heartbeat for the scheduler families, the ball
// gather for rr4-gather.
func runRuntimeWorkload(family string, net *local.Network, rounds int) {
	if family == "rr4-gather" {
		local.GatherStepped(net, runtimeGatherRadius)
		return
	}
	local.RunStepped(net, heartbeat(rounds))
}

// RuntimeThroughput measures scheduler throughput across the graph
// families. Rounds/s is measured with a single worker so the number is
// comparable across hosts; the same case is then re-run for the
// GOMAXPROCS sweep with a worker per CPU (two workers on a single-CPU
// host, where the column measures coordination overhead). The clique
// family is capped by edge count (a million-node clique has 5·10¹¹
// edges), so it scales n where the others scale edges.
func RuntimeThroughput(cfg Config) *RuntimeReport {
	cfg.install()
	rep := &RuntimeReport{Header: cfg.docHeader(RuntimeSchema)}
	rep.RefScore = ReferenceScore()
	type c struct {
		family string
		n      int
	}
	var cases []c
	rounds := 16
	if cfg.Quick {
		rounds = 8
		for _, n := range []int{1_000, 10_000} {
			cases = append(cases, c{"path", n}, c{"rr4", n})
		}
		cases = append(cases, c{"clique", 128}, c{"clique", 256})
		for _, n := range []int{1_000, 10_000} {
			cases = append(cases, c{"rr4-gather", n})
		}
	} else {
		for _, n := range []int{10_000, 100_000, 1_000_000} {
			cases = append(cases, c{"path", n}, c{"rr4", n})
		}
		// clique 256 is also a quick-mode case: sharing one n with the
		// quick sweep lets the CI benchmark-delta gate cover the clique
		// family (CompareRuntime can only gate common (family, n) rows).
		cases = append(cases, c{"clique", 256}, c{"clique", 512}, c{"clique", 1024}, c{"clique", 2048})
		for _, n := range []int{10_000, 100_000, 1_000_000} {
			cases = append(cases, c{"rr4-gather", n})
		}
	}
	sweepWorkers := runtime.NumCPU()
	if sweepWorkers < 2 {
		sweepWorkers = 2
	}
	for _, tc := range cases {
		g := runtimeCase(tc.family, tc.n, cfg.Seed)
		t0 := time.Now()
		net := local.NewNetwork(g, cfg.Seed)
		build := time.Since(t0)
		net.SetWorkers(1)

		// Warm-up run: the first run on a fresh network pays cold page
		// faults, lazy engine-buffer setup and branch-predictor training; at quick scale that cold start is
		// a large fraction of the ~20ms timed window and made the CI delta
		// gate flake on the smaller families.
		runRuntimeWorkload(tc.family, net, rounds)
		// Collect garbage from the warm-up and earlier cases, then keep the
		// best of a few reps: the gather families allocate their output
		// balls inside the timed window, so a single rep's throughput
		// depends on where GC lands — heap state differs between quick and
		// full sweeps, and the delta gate compares across the two.
		runtime.GC()

		row := RuntimeRow{
			Family:      tc.family,
			N:           tc.n,
			Edges:       g.M(),
			Delta:       g.MaxDegree(),
			Workers:     1,
			BuildMillis: float64(build.Microseconds()) / 1000,
		}
		var before, after runtime.MemStats
		for rep := 0; rep < runtimeReps; rep++ {
			runtime.ReadMemStats(&before)
			runRuntimeWorkload(tc.family, net, rounds)
			runtime.ReadMemStats(&after)
			st := net.LastRunStats()
			if st.RoundsPerSec <= row.RoundsPerSec {
				continue
			}
			row.Rounds = st.Rounds
			row.RunMillis = float64(st.WallTime.Microseconds()) / 1000
			row.RoundsPerSec = st.RoundsPerSec
			if st.Rounds > 0 {
				row.AllocsPerRound = float64(after.Mallocs-before.Mallocs) / float64(st.Rounds)
				row.NsPerNodeRound = float64(st.WallTime.Nanoseconds()) / (float64(st.Rounds) * float64(tc.n))
			}
		}

		net.SetWorkers(sweepWorkers)
		row.WorkersMP = sweepWorkers
		for rep := 0; rep < runtimeReps; rep++ {
			runRuntimeWorkload(tc.family, net, rounds)
			if rps := net.LastRunStats().RoundsPerSec; rps > row.RoundsPerSecMP {
				row.RoundsPerSecMP = rps
			}
		}

		// Untimed instrumented re-run for the max message size, after both
		// timed runs; the per-port size accounting would pollute the
		// measurements.
		net.EnableMessageStats()
		runRuntimeWorkload(tc.family, net, rounds)
		row.MaxMsgBytes = net.MessageStats().MaxBytes
		rep.Rows = append(rep.Rows, row)
	}
	return rep
}

// runtimeExperiment runs E12; a baseline in cfg arms its gate.
func runtimeExperiment(cfg Config) Report {
	rep := RuntimeThroughput(cfg)
	r := Report{Table: rep.Table(), Name: "runtime", Doc: rep}
	if cfg.Baseline != nil || cfg.MultiWorkerBaseline != nil {
		r.Gate = func() error {
			var errs []error
			if cfg.Baseline != nil {
				errs = append(errs, CompareRuntime(rep, cfg.Baseline))
			}
			if cfg.MultiWorkerBaseline != nil {
				errs = append(errs, CompareMultiWorker(rep, cfg.MultiWorkerBaseline))
			}
			return errors.Join(errs...)
		}
	}
	return r
}

// Table renders the report as the E12 table.
func (rep *RuntimeReport) Table() *Table {
	t := &Table{
		ID:     "E12",
		Title:  "Runtime throughput (batched LOCAL round engine: heartbeat and ball-gather workloads)",
		Header: []string{"family", "n", "edges", "rounds", "build ms", "run ms", "rounds/s (1w)", "ns/node-round", "allocs/round", "max msg B", fmt.Sprintf("rounds/s (%dw)", rep.sweepWorkers())},
	}
	for _, r := range rep.Rows {
		mp := "-"
		if r.WorkersMP > 0 {
			mp = f2(r.RoundsPerSecMP)
		}
		t.AddRow(r.Family, itoa(r.N), itoa(r.Edges), itoa(r.Rounds),
			f2(r.BuildMillis), f2(r.RunMillis), f2(r.RoundsPerSec),
			f2(r.NsPerNodeRound), fmt.Sprintf("%.0f", r.AllocsPerRound), itoa(r.MaxMsgBytes), mp)
	}
	t.AddNote("GOMAXPROCS=%d, quick=%v, reference-loop score %.3g iters/s; rounds/s is the best of %d warmed reps with one worker (host-comparable), the sweep column the best of %d with a worker per CPU (two workers on a single-CPU host, where it measures coordination overhead). max msg B comes from a separate instrumented run. The rr4-gather family runs the radius-%d ball gather. Network construction is O(n + Σ deg); a round costs O(workers) park/wake transitions and zero allocations on the int path.",
		rep.GoMaxProcs, rep.Quick, rep.RefScore, runtimeReps, runtimeReps, runtimeGatherRadius)
	return t
}

// sweepWorkers returns the worker count of the sweep column (for the
// header), defaulting to the host CPU count when no row carries one.
func (rep *RuntimeReport) sweepWorkers() int {
	for _, r := range rep.Rows {
		if r.WorkersMP > 0 {
			return r.WorkersMP
		}
	}
	return runtime.NumCPU()
}

// runtimeDeltaTolerance is the CI delta gate's bound: single-worker
// rounds-per-ref may fall at most this fraction below the baseline.
const runtimeDeltaTolerance = 0.30

// CompareRuntime checks cur against a baseline report: for every family
// present in both, at the largest common n, single-worker rounds/s ÷
// RefScore must not fall more than runtimeDeltaTolerance below the
// baseline's. The ratio is machine-independent, so a baseline recorded on
// a fast workstation gates correctly on a slow CI runner (and vice
// versa); a report without a reference score is rejected. It returns an
// error naming every regressed family in sorted order, or one when the
// reports share no rows at all — a silently vacuous gate would defeat the
// point of the CI step.
func CompareRuntime(cur, base *RuntimeReport) error {
	if cur.RefScore <= 0 || base.RefScore <= 0 {
		return fmt.Errorf("benchmark delta: both reports need a ref_score (current %g, baseline %g)", cur.RefScore, base.RefScore)
	}
	type key struct {
		family string
		n      int
	}
	baseRows := map[key]RuntimeRow{}
	for _, r := range base.Rows {
		baseRows[key{r.Family, r.N}] = r
	}
	largest := map[string]RuntimeRow{}
	for _, r := range cur.Rows {
		if _, ok := baseRows[key{r.Family, r.N}]; !ok {
			continue
		}
		if best, ok := largest[r.Family]; !ok || r.N > best.N {
			largest[r.Family] = r
		}
	}
	if len(largest) == 0 {
		return fmt.Errorf("benchmark delta: no (family, n) rows in common between current and baseline reports")
	}
	var errs []error
	for _, family := range slices.Sorted(maps.Keys(largest)) {
		r := largest[family]
		curScore := r.RoundsPerSec / cur.RefScore
		baseScore := baseRows[key{family, r.N}].RoundsPerSec / base.RefScore
		floor := baseScore * (1 - runtimeDeltaTolerance)
		if curScore < floor {
			errs = append(errs, fmt.Errorf("benchmark delta: %s n=%d regressed: %.4g rounds-per-ref (rounds/s ÷ reference-loop score) vs baseline %.4g (floor %.4g at -%.0f%%)",
				family, r.N, curScore, baseScore, floor, runtimeDeltaTolerance*100))
		}
	}
	return errors.Join(errs...)
}

// multiWorkerMargin is the multi-worker gate's noise margin: quick-scale
// CI runs are noisy and a 10k-node round is a ~2ms window, so it is
// generous.
const multiWorkerMargin = 0.25

// CompareMultiWorker is the scheduler's parallel-speedup gate: on the
// rr4 family — the expander whose scattered delivery is exactly where a
// worker pool should help — the multi-worker sweep of cur must not be
// slower than base's single-worker measurement at the largest common n,
// up to multiWorkerMargin. cur and base are expected to come from the
// same machine in the same CI job (GOMAXPROCS=4 and =1 runs
// respectively), so the comparison is on raw rounds/s, not the
// reference-normalized ratio. It returns an error describing the
// regression, or when no common rr4 row with a populated sweep exists — a
// vacuous gate would defeat the CI step.
func CompareMultiWorker(cur, base *RuntimeReport) error {
	baseRows := map[int]RuntimeRow{}
	for _, r := range base.Rows {
		if r.Family == "rr4" {
			baseRows[r.N] = r
		}
	}
	var pick *RuntimeRow
	for i := range cur.Rows {
		r := &cur.Rows[i]
		if r.Family != "rr4" || r.RoundsPerSecMP <= 0 {
			continue
		}
		if _, ok := baseRows[r.N]; !ok {
			continue
		}
		if pick == nil || r.N > pick.N {
			pick = r
		}
	}
	if pick == nil {
		return fmt.Errorf("multi-worker gate: no common rr4 row with a populated sweep between current and baseline reports")
	}
	b := baseRows[pick.N]
	floor := b.RoundsPerSec * (1 - multiWorkerMargin)
	if pick.RoundsPerSecMP < floor {
		return fmt.Errorf("multi-worker gate: rr4 n=%d with %d workers %.2f rounds/s vs single-worker baseline %.2f (floor %.2f at -%.0f%%)",
			pick.N, pick.WorkersMP, pick.RoundsPerSecMP, b.RoundsPerSec, floor, multiWorkerMargin*100)
	}
	return nil
}
