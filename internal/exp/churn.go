package exp

// E16: churn and fault recovery. The coloring-as-a-service loop keeps a
// Δ-coloring alive while the graph mutates underneath it and faults mangle
// the runs that maintain it. This experiment measures the two halves of
// that loop introduced by the robustness PR:
//
//   - Mutation rows: color a random-regular graph once, push a 1% mutation
//     stream (edge inserts, degree-guarded deletes, node arrivals) through
//     the live local.Network churn API, then restore a verified coloring
//     both ways — incrementally (deltacolor.Recolor: conflict-set scan +
//     batched Brooks repair, O(conflict set)) and from scratch
//     (deltacolor.Color on the mutated graph). The claim, enforced by
//     ChurnGate under -strict: at the largest n the incremental path wins
//     on charged LOCAL rounds AND wall time.
//
//   - Fault rows: deltacolor.ColorUnderFaults for every algorithm under
//     representative FaultPlans (drop, dup+delay, crash bursts),
//     self-checking the all-or-typed-error contract; the gate demands
//     that every algorithm × plan run heals to a verified coloring.
//
// cmd/benchsuite serializes the report (BENCH_churn.json) and the CI quick
// pass runs it under -strict.

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"deltacolor"
	"deltacolor/graph/gen"
	"deltacolor/local"
	"deltacolor/verify"
)

// ChurnSchema identifies the BENCH_churn.json layout.
const ChurnSchema = "deltacolor/bench-churn/v2"

// ChurnMutationRow is one (family, n) incremental-vs-full measurement.
type ChurnMutationRow struct {
	Family    string `json:"family"`
	N         int    `json:"n"` // node count after the stream (arrivals included)
	Edges     int    `json:"edges"`
	Delta     int    `json:"delta"` // color budget after mutation (MaxDegree)
	Mutations int    `json:"mutations"`
	Inserts   int    `json:"inserts"`
	Deletes   int    `json:"deletes"`
	NodeAdds  int    `json:"node_adds"`
	Conflicts int    `json:"conflicts"` // conflict-set size the stream left behind

	IncrRounds int     `json:"incr_rounds"` // charged repair rounds (sched + exec)
	IncrMillis float64 `json:"incr_ms"`
	FullRounds int     `json:"full_rounds"` // full pipeline rounds on the mutated graph
	FullMillis float64 `json:"full_ms"`

	RoundsRatio float64 `json:"rounds_ratio"` // incr/full, <1 means incremental wins
	WallRatio   float64 `json:"wall_ratio"`
}

// ChurnFaultRow is one ColorUnderFaults run of one algorithm under a
// named FaultPlan.
type ChurnFaultRow struct {
	Algorithm     string  `json:"algorithm"`
	Plan          string  `json:"plan"`
	N             int     `json:"n"`
	Delta         int     `json:"delta"`
	Rounds        int     `json:"rounds"` // pipeline rounds (0 when unrecoverable)
	Conflicts     int     `json:"conflicts"`
	Repaired      int     `json:"repaired"`
	Millis        float64 `json:"ms"`
	Verified      bool    `json:"verified"`
	Unrecoverable bool    `json:"unrecoverable"`
}

// ChurnReport is the full E16 output, serialized to BENCH_churn.json.
type ChurnReport struct {
	Header
	MutationRows []ChurnMutationRow `json:"mutation_rows"`
	FaultRows    []ChurnFaultRow    `json:"fault_rows"`
}

// churnStream pushes ops random mutations through the live network churn
// API, mirroring the arrival/departure mix of a service workload: mostly
// edge inserts (capped so degrees stay <= churnDegCap and Δ stays tame),
// some deletes (only when both endpoints keep degree >= 3, preserving the
// pipelines' minimum-degree precondition), and occasional node arrivals
// wired to three anchors. Returns the op counts; colors gains a -1 entry
// per arrival, per the Recolor contract.
func churnStream(net *local.Network, rng *rand.Rand, colors *[]int, ops int) (ins, del, adds int) {
	const churnDegCap = 8
	g := net.Graph()
	for k := 0; k < ops; k++ {
		switch r := rng.Float64(); {
		case r < 0.80: // insert
			u, v := rng.Intn(g.N()), rng.Intn(g.N())
			if u == v || g.HasEdge(u, v) || g.Deg(u) >= churnDegCap || g.Deg(v) >= churnDegCap {
				continue
			}
			if err := net.AddEdge(u, v); err != nil {
				panic(fmt.Sprintf("E16 churn insert (%d,%d): %v", u, v, err))
			}
			ins++
		case r < 0.95: // delete, degree-guarded
			u := rng.Intn(g.N())
			if g.Deg(u) < 4 {
				continue
			}
			v := g.Neighbors(u)[rng.Intn(g.Deg(u))]
			if g.Deg(v) < 4 {
				continue
			}
			if err := net.RemoveEdge(u, v); err != nil {
				panic(fmt.Sprintf("E16 churn delete (%d,%d): %v", u, v, err))
			}
			del++
		default: // node arrival wired to three anchors
			nv := net.AddNode()
			wired := 0
			for tries := 0; wired < 3 && tries < 20; tries++ {
				u := rng.Intn(nv)
				if g.HasEdge(nv, u) || g.Deg(u) >= churnDegCap {
					continue
				}
				if err := net.AddEdge(nv, u); err != nil {
					panic(fmt.Sprintf("E16 churn wire (%d,%d): %v", nv, u, err))
				}
				wired++
			}
			*colors = append(*colors, -1)
			adds++
		}
	}
	return ins, del, adds
}

// churnPlans are the representative fault schedules of the fault rows.
// Every plan bounds its burst (ToRound) and carries the RoundLimit
// Validate requires, so runs terminate even when the damage is fatal.
func churnPlans(seed int64) []struct {
	name string
	plan *local.FaultPlan
} {
	return []struct {
		name string
		plan *local.FaultPlan
	}{
		{"drop-2%", &local.FaultPlan{Seed: seed, DropProb: 0.02, FromRound: 1, ToRound: 60, RoundLimit: 50_000}},
		{"dup+delay", &local.FaultPlan{Seed: seed + 1, DupProb: 0.05, DelayProb: 0.05, MaxDelay: 2, FromRound: 1, ToRound: 60, RoundLimit: 50_000}},
		{"crash-burst", &local.FaultPlan{Seed: seed + 2, DropProb: 0.005, FromRound: 1, ToRound: 40, RoundLimit: 50_000,
			Crashes: []local.CrashWindow{{Node: 1, From: 2, To: 12}, {Node: 17, From: 5, To: 9}, {Node: 101, From: 3, To: 30}}}},
	}
}

// ChurnRecovery runs E16: the incremental-vs-full comparison over 1%
// mutation streams, then the fault-recovery rows.
func ChurnRecovery(cfg Config) *ChurnReport {
	cfg.install()
	rep := &ChurnReport{Header: cfg.docHeader(ChurnSchema)}

	sizes := []int{10_000, 100_000}
	faultN := 4096
	if cfg.Quick {
		sizes = []int{2_000, 10_000}
		faultN = 512
	}
	for _, n := range sizes {
		g := gen.MustRandomRegular(rand.New(rand.NewSource(cfg.Seed)), n, 4)
		res, err := deltacolor.Color(g, deltacolor.Options{Algorithm: deltacolor.AlgRandomized, Seed: cfg.Seed})
		if err != nil {
			panic(fmt.Sprintf("E16 rr4 n=%d initial coloring: %v", n, err))
		}
		colors := res.Colors

		net := local.NewNetwork(g, cfg.Seed)
		rng := rand.New(rand.NewSource(cfg.Seed + int64(n)))
		ops := n / 100
		ins, del, adds := churnStream(net, rng, &colors, ops)
		delta := g.MaxDegree()
		conflicts := len(deltacolor.ConflictSet(g, colors, delta))

		// Incremental: conflict-set scan + batched Brooks repair.
		incr := append([]int(nil), colors...)
		t0 := time.Now()
		stats, err := deltacolor.Recolor(g, incr, delta, cfg.Seed)
		incrMillis := float64(time.Since(t0).Microseconds()) / 1000
		if err != nil {
			panic(fmt.Sprintf("E16 rr4 n=%d incremental recolor: %v", n, err))
		}

		// Full: rerun the whole pipeline on the mutated graph.
		t1 := time.Now()
		full, err := deltacolor.Color(g, deltacolor.Options{Algorithm: deltacolor.AlgRandomized, Seed: cfg.Seed})
		fullMillis := float64(time.Since(t1).Microseconds()) / 1000
		if err != nil {
			panic(fmt.Sprintf("E16 rr4 n=%d full recolor: %v", n, err))
		}
		if err := verify.DeltaColoring(g, full.Colors, full.Delta); err != nil {
			panic(fmt.Sprintf("E16 rr4 n=%d full recolor invalid: %v", n, err))
		}

		rep.MutationRows = append(rep.MutationRows, ChurnMutationRow{
			Family: "rr4", N: g.N(), Edges: g.M(), Delta: delta,
			Mutations: ops, Inserts: ins, Deletes: del, NodeAdds: adds,
			Conflicts:  conflicts,
			IncrRounds: stats.RepairRounds, IncrMillis: incrMillis,
			FullRounds: full.Rounds, FullMillis: fullMillis,
			RoundsRatio: ratio(stats.RepairRounds, full.Rounds),
			WallRatio:   incrMillis / fullMillis,
		})
	}

	rep.FaultRows = churnFaultRows(cfg, faultN)
	return rep
}

// churnAlgorithms are the pipelines the fault rows run, in row order.
var churnAlgorithms = []deltacolor.Algorithm{deltacolor.AlgRandomized, deltacolor.AlgDeterministic, deltacolor.AlgNetDec, deltacolor.AlgBaseline}

// churnFaultRows runs ColorUnderFaults for every algorithm under every
// churn plan on one random 4-regular graph of n nodes: one row per run,
// algorithm by algorithm, plans in churnPlans order.
func churnFaultRows(cfg Config, n int) []ChurnFaultRow {
	g := gen.MustRandomRegular(rand.New(rand.NewSource(cfg.Seed+7)), n, 4)
	var rows []ChurnFaultRow
	for _, alg := range churnAlgorithms {
		for _, tc := range churnPlans(cfg.Seed) {
			t0 := time.Now()
			res, stats, err := deltacolor.ColorUnderFaults(g, deltacolor.Options{Algorithm: alg, Seed: cfg.Seed}, tc.plan)
			millis := float64(time.Since(t0).Microseconds()) / 1000
			row := ChurnFaultRow{Algorithm: alg.String(), Plan: tc.name, N: g.N(), Millis: millis}
			if err != nil {
				if !errors.Is(err, deltacolor.ErrUnrecoverable) {
					panic(fmt.Sprintf("E16 %s under fault plan %s: untyped error: %v", alg, tc.name, err))
				}
				row.Unrecoverable = true
			} else {
				if verr := verify.DeltaColoring(g, res.Colors, res.Delta); verr != nil {
					panic(fmt.Sprintf("E16 %s under fault plan %s: nil error but invalid coloring: %v", alg, tc.name, verr))
				}
				row.Delta = res.Delta
				row.Rounds = res.Rounds
				row.Conflicts = stats.Conflicts
				row.Repaired = stats.Repaired
				row.Verified = true
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// Table renders the report as the E16 table.
func (rep *ChurnReport) Table() *Table {
	t := &Table{
		ID:     "E16",
		Title:  "Churn & fault recovery: incremental Recolor vs full re-coloring (1% mutation streams), ColorUnderFaults plans",
		Header: []string{"row", "n", "edges", "Δ", "work", "conflicts", "incr rounds", "incr ms", "full rounds", "full ms", "rounds ratio", "wall ratio"},
	}
	for _, r := range rep.MutationRows {
		t.AddRow("churn/"+r.Family, itoa(r.N), itoa(r.Edges), itoa(r.Delta),
			fmt.Sprintf("%d ops (%di/%dd/%da)", r.Mutations, r.Inserts, r.Deletes, r.NodeAdds),
			itoa(r.Conflicts), itoa(r.IncrRounds), f2(r.IncrMillis),
			itoa(r.FullRounds), f2(r.FullMillis), f4(r.RoundsRatio), f4(r.WallRatio))
	}
	for _, r := range rep.FaultRows {
		outcome := "unrecoverable"
		if r.Verified {
			outcome = fmt.Sprintf("healed %d/%d", r.Repaired, r.Conflicts)
		}
		t.AddRow("fault/"+r.Algorithm+"/"+r.Plan, itoa(r.N), "-", itoa(r.Delta), outcome, itoa(r.Conflicts),
			"-", "-", itoa(r.Rounds), f2(r.Millis), "-", "-")
	}
	t.AddNote("GOMAXPROCS=%d, quick=%v. Churn rows: a 1%% mutation stream (80%% degree-capped inserts, 15%% degree-guarded deletes, "+
		"5%% node arrivals) runs through the live network churn API, then the coloring is restored incrementally "+
		"(ConflictSet scan + batched Brooks repair, charged sched+exec rounds) and from scratch (full pipeline). "+
		"Ratios < 1 mean the incremental path wins; the -strict gate requires both at the largest n. Fault rows: "+
		"ColorUnderFaults for every algorithm under bounded fault bursts — every run must heal to a verified coloring "+
		"or return a typed ErrUnrecoverable; the gate requires every algorithm × plan run to heal.", rep.GoMaxProcs, rep.Quick)
	return t
}

// ChurnGate checks the report's central claims: at the largest measured n
// the incremental path must beat the full pipeline on charged rounds AND
// wall time, and every fault row (algorithm × plan) must heal to a
// verified coloring.
func ChurnGate(rep *ChurnReport) error {
	var top *ChurnMutationRow
	for i := range rep.MutationRows {
		r := &rep.MutationRows[i]
		if top == nil || r.N > top.N {
			top = r
		}
	}
	if top == nil {
		return fmt.Errorf("churn gate: report has no mutation rows")
	}
	if top.IncrRounds >= top.FullRounds {
		return fmt.Errorf("churn gate: n=%d incremental rounds %d did not beat full pipeline %d",
			top.N, top.IncrRounds, top.FullRounds)
	}
	if top.IncrMillis >= top.FullMillis {
		return fmt.Errorf("churn gate: n=%d incremental wall %.2fms did not beat full pipeline %.2fms",
			top.N, top.IncrMillis, top.FullMillis)
	}
	if len(rep.FaultRows) == 0 {
		return fmt.Errorf("churn gate: report has no fault rows")
	}
	for _, r := range rep.FaultRows {
		if !r.Verified {
			return fmt.Errorf("churn gate: %s under fault plan %s did not heal to a verified coloring", r.Algorithm, r.Plan)
		}
	}
	return nil
}
