package deltacolor_test

// Fault-injection soak: a time-bounded randomized stress loop mixing
// fault schedules, live churn and incremental recovery, asserting the
// two invariants the robustness layer promises — every outcome is either
// a verified coloring or an error wrapping ErrUnrecoverable, and a
// healed coloring always passes verification. Intended to run under
// -race in CI (see the workflow's soak step); skipped in -short.

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"deltacolor"
	"deltacolor/graph/gen"
	"deltacolor/local"
	"deltacolor/verify"
)

// soakBudget bounds the soak's wall time; the loop stops starting new
// iterations once it is spent, so the test stays ~30s even under -race.
const soakBudget = 20 * time.Second

func TestFaultChurnSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short")
	}
	rng := rand.New(rand.NewSource(0xdecade))
	deadline := time.Now().Add(soakBudget)
	iters, healed, unrecoverable := 0, 0, 0
	for time.Now().Before(deadline) {
		iters++
		n, d := 64+32*rng.Intn(4), 3+rng.Intn(3)
		g := gen.MustRandomRegular(rng, n, d)
		plan := &local.FaultPlan{
			Seed:       rng.Int63(),
			DropProb:   0.08 * rng.Float64(),
			DupProb:    0.1 * rng.Float64(),
			DelayProb:  0.1 * rng.Float64(),
			MaxDelay:   1 + rng.Intn(4),
			FromRound:  1 + rng.Intn(5),
			ToRound:    20 + rng.Intn(80),
			RoundLimit: 30_000,
		}
		for c := rng.Intn(3); c > 0; c-- {
			from := 1 + rng.Intn(10)
			plan.Crashes = append(plan.Crashes, local.CrashWindow{
				Node: rng.Intn(n), From: from, To: from + 1 + rng.Intn(25),
			})
		}
		opts := deltacolor.Options{Algorithm: deltacolor.AlgRandomized, Seed: rng.Int63()}
		res, _, err := deltacolor.ColorUnderFaults(g, opts, plan)
		if err != nil {
			if !errors.Is(err, deltacolor.ErrUnrecoverable) {
				t.Fatalf("iter %d: untyped fault error: %v", iters, err)
			}
			unrecoverable++
			continue
		}
		if verr := verify.DeltaColoring(g, res.Colors, res.Delta); verr != nil {
			t.Fatalf("iter %d: nil error but invalid coloring: %v", iters, verr)
		}
		healed++

		// Follow up with live churn on a network over the same graph and
		// an incremental repair — the coloring-as-a-service loop.
		net := local.NewNetwork(g, 4)
		colors := res.Colors
		for k := 0; k < 6; k++ {
			u, v := rng.Intn(g.N()), rng.Intn(g.N())
			if u != v && !g.HasEdge(u, v) {
				if err := net.AddEdge(u, v); err != nil {
					t.Fatalf("iter %d: churn insert: %v", iters, err)
				}
			}
		}
		nv := net.AddNode()
		for k := 0; k < 2; k++ {
			if u := rng.Intn(nv); !g.HasEdge(nv, u) {
				if err := net.AddEdge(nv, u); err != nil {
					t.Fatalf("iter %d: churn wire: %v", iters, err)
				}
			}
		}
		colors = append(colors, -1)
		delta := g.MaxDegree()
		if _, err := deltacolor.Recolor(g, colors, delta, rng.Int63()); err != nil {
			if !errors.Is(err, deltacolor.ErrUnrecoverable) {
				t.Fatalf("iter %d: untyped recolor error: %v", iters, err)
			}
			unrecoverable++
			continue
		}
		if verr := verify.DeltaColoring(g, colors, delta); verr != nil {
			t.Fatalf("iter %d: post-churn recolor invalid: %v", iters, verr)
		}
	}
	t.Logf("soak: %d iterations, %d healed, %d unrecoverable", iters, healed, unrecoverable)
	if healed == 0 {
		t.Fatal("soak never healed a run — fault magnitudes drowned the signal")
	}
}

// TestColorUnderFaultsRoundLimitCut runs every algorithm under a
// FaultPlan whose RoundLimit cuts its engine runs short. Nodes halted by
// the limit never write their outputs, so the pipelines read each slot's
// "no output" value there. Every run must heal to a verified coloring.
// RoundLimit 1 and 2 cut even the MIS that schedules the pipelines'
// repair batches, so those repairs fail; the run's coloring still
// reaches Recolor (a *core.PartialError), where before it ended
// ErrUnrecoverable with an empty residual. RoundLimit 20 and 115 cut the
// 116-round color reduction that schedules the deterministic pipelines'
// layers, 115 by one round, so the nodes of its last class keep no class.
func TestColorUnderFaultsRoundLimitCut(t *testing.T) {
	g := gen.MustRandomRegular(rand.New(rand.NewSource(8)), 512, 4)
	algs := []deltacolor.Algorithm{deltacolor.AlgRandomized, deltacolor.AlgDeterministic, deltacolor.AlgBaseline, deltacolor.AlgNetDec}
	for _, alg := range algs {
		t.Run(alg.String(), func(t *testing.T) {
			for _, limit := range []int{1, 2, 20, 115} {
				t.Run(fmt.Sprintf("RoundLimit=%d", limit), func(t *testing.T) {
					plan := &local.FaultPlan{Seed: 1, RoundLimit: limit}
					res, _, err := deltacolor.ColorUnderFaults(g, deltacolor.Options{Algorithm: alg, Seed: 1}, plan)
					if err != nil {
						t.Fatalf("%v, want a healed coloring", err)
					}
					if verr := verify.DeltaColoring(g, res.Colors, res.Delta); verr != nil {
						t.Errorf("nil error but invalid coloring: %v", verr)
					}
				})
			}
		})
	}
}

// TestColorUnderFaultsHealsFailedFinalCheck pins that a pipeline whose
// coloring fails its final check still heals: ColorUnderFaults hands that
// coloring to Recolor. AlgBaseline's color reduction takes 116 rounds on
// this graph, so every RoundLimit below cuts it, and the cut nodes reach
// the final check uncolored. Before the failed check's coloring reached
// Recolor, all seven limits ended ErrUnrecoverable.
func TestColorUnderFaultsHealsFailedFinalCheck(t *testing.T) {
	g := gen.MustRandomRegular(rand.New(rand.NewSource(8)), 512, 4)
	for _, limit := range []int{1, 2, 5, 10, 20, 50, 100} {
		plan := &local.FaultPlan{Seed: 1, RoundLimit: limit}
		res, stats, err := deltacolor.ColorUnderFaults(g, deltacolor.Options{Algorithm: deltacolor.AlgBaseline, Seed: 1}, plan)
		if err != nil {
			t.Errorf("RoundLimit %d: %v, want a healed coloring", limit, err)
			continue
		}
		if verr := verify.DeltaColoring(g, res.Colors, res.Delta); verr != nil {
			t.Errorf("RoundLimit %d: nil error but invalid coloring: %v", limit, verr)
		}
		if stats.Conflicts == 0 {
			t.Errorf("RoundLimit %d: Recolor found nothing to repair, so the final check passed", limit)
		}
	}
}

// TestColorUnderFaultsImproperLinial runs both deterministic pipelines
// under 90% drops in every run's first round, which make Linial's
// coloring improper: the color reduction rejects it, so no layer has a
// schedule and every layer defers to the safety net. Each run must heal
// to a verified coloring, and its Repairs, the holes the safety net
// found, cannot exceed n (when each failed layer was tallied on top of
// the safety net's count, it read 1,022 on these 512 nodes).
func TestColorUnderFaultsImproperLinial(t *testing.T) {
	g := gen.MustRandomRegular(rand.New(rand.NewSource(8)), 512, 4)
	plan := &local.FaultPlan{Seed: 3, DropProb: 0.9, FromRound: 1, ToRound: 1, RoundLimit: 50_000}
	for _, alg := range []deltacolor.Algorithm{deltacolor.AlgDeterministic, deltacolor.AlgNetDec} {
		t.Run(alg.String(), func(t *testing.T) {
			res, stats, err := deltacolor.ColorUnderFaults(g, deltacolor.Options{Algorithm: alg, Seed: 1}, plan)
			if err != nil {
				t.Fatalf("%v, want a healed coloring", err)
			}
			if verr := verify.DeltaColoring(g, res.Colors, res.Delta); verr != nil {
				t.Errorf("nil error but invalid coloring: %v", verr)
			}
			if res.Repairs > g.N() {
				t.Errorf("%d repairs on %d nodes", res.Repairs, g.N())
			}
			t.Logf("healed: %d repairs in the pipeline, recolor %+v", res.Repairs, *stats)
		})
	}
}
