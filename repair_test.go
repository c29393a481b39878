package deltacolor_test

// Forced-repair coverage for the batched Brooks safety net: seeds where
// the randomized pipeline's layer instances defer nodes, driving the
// repair engine end-to-end through the public API, plus the batch-stat
// invariants every algorithm must satisfy.

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"deltacolor"
	"deltacolor/graph"
	"deltacolor/graph/gen"
	"deltacolor/local"
	"deltacolor/verify"
)

// checkRepairStats asserts the batch-stat invariants of a Result.
func checkRepairStats(t *testing.T, res *deltacolor.Result, label string) {
	t.Helper()
	if len(res.RepairBatchRounds) != res.RepairBatches {
		t.Fatalf("%s: %d batch-round entries for %d batches", label, len(res.RepairBatchRounds), res.RepairBatches)
	}
	for i, r := range res.RepairBatchRounds {
		if r <= 0 {
			t.Fatalf("%s: batch %d charged %d rounds", label, i, r)
		}
	}
	if res.Repairs > 0 && res.RepairBatches == 0 {
		t.Fatalf("%s: %d repairs with no batches", label, res.Repairs)
	}
	if res.Repairs == 0 && res.Algorithm == deltacolor.AlgRandomized && res.RepairBatches != 0 {
		t.Fatalf("%s: %d batches with no repairs", label, res.RepairBatches)
	}
}

// TestForcedRepairProperty sweeps seeds known (and re-verified here) to
// make the randomized pipeline defer nodes to the Brooks safety net: the
// repaired colorings must always verify, the batch stats must be
// consistent, and the sweep must actually exercise the repair path.
func TestForcedRepairProperty(t *testing.T) {
	forced := 0
	for seed := int64(1); seed <= 8; seed++ {
		g := gen.MustRandomRegular(rand.New(rand.NewSource(seed)), 256, 4)
		res, err := deltacolor.Color(g, deltacolor.Options{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := verify.DeltaColoring(g, res.Colors, res.Delta); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkRepairStats(t, res, "randomized")
		if res.Repairs > 0 {
			forced++
			// Batching must never charge more batches than repairs.
			if res.RepairBatches > res.Repairs {
				t.Fatalf("seed %d: %d batches for %d repairs", seed, res.RepairBatches, res.Repairs)
			}
		}
	}
	if forced < 3 {
		t.Fatalf("only %d/8 seeds exercised the repair path; the sweep no longer forces repairs", forced)
	}
}

// TestForcedRepairAllAlgorithms runs every algorithm on a fixed graph and
// checks the coloring and the repair stats; the deterministic variants'
// B0 batches must appear in the histogram even when nothing was deferred.
func TestForcedRepairAllAlgorithms(t *testing.T) {
	g := gen.MustRandomRegular(rand.New(rand.NewSource(4)), 256, 4)
	for _, alg := range []deltacolor.Algorithm{
		deltacolor.AlgRandomized,
		deltacolor.AlgDeterministic,
		deltacolor.AlgNetDec,
		deltacolor.AlgBaseline,
	} {
		res, err := deltacolor.Color(g, deltacolor.Options{Algorithm: alg, Seed: 4})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if err := verify.DeltaColoring(g, res.Colors, res.Delta); err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		checkRepairStats(t, res, alg.String())
		if alg == deltacolor.AlgDeterministic || alg == deltacolor.AlgNetDec {
			// B0 is always colored through the engine; with the ruling-set
			// spacing its repairs land in a single batch.
			if res.RepairBatches == 0 {
				t.Fatalf("%v: B0 engine run missing from the batch stats", alg)
			}
		}
	}
}

// TestRepairRoundsInsidePhaseSpans: the engine rounds a Brooks repair
// executes (the MIS that schedules its batch) belong to the phase that
// charges them, so under a full tracer every recorded round must start
// inside a top-level child of Result.Span. The input is four disjoint
// random 4-regular graphs, so the deterministic pipelines' ruling set has
// one B0 node per component and their B0 batch needs scheduling.
func TestRepairRoundsInsidePhaseSpans(t *testing.T) {
	part := gen.MustRandomRegular(rand.New(rand.NewSource(6)), 64, 4)
	g := graph.New(4 * part.N())
	for c := 0; c < 4; c++ {
		off := c * part.N()
		for _, e := range part.Edges() {
			g.MustEdge(off+e[0], off+e[1])
		}
	}
	for _, tc := range []struct {
		alg   deltacolor.Algorithm
		sched string // phase-name prefix of a repair batch's scheduling charge
	}{
		{deltacolor.AlgDeterministic, "brooks-B0-sched["},
		{deltacolor.AlgNetDec, "brooks-B0-sched["},
		{deltacolor.AlgBaseline, "token-sched["},
	} {
		t.Run(tc.alg.String(), func(t *testing.T) {
			tr := local.NewTracer(local.TraceFull, 0)
			local.SetDefaultTracer(tr)
			res, err := deltacolor.Color(g, deltacolor.Options{Algorithm: tc.alg, Seed: 5})
			local.SetDefaultTracer(nil)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.ContainsFunc(res.Phases, func(p deltacolor.PhaseStat) bool { return strings.HasPrefix(p.Name, tc.sched) }) {
				t.Fatalf("no %s… phase; the input no longer makes the repair run an MIS: %s", tc.sched, phaseString(res.Phases))
			}
			rounds := tr.Rounds()
			if int64(len(rounds)) != tr.Counters().Rounds {
				t.Fatal("the tracer ring wrapped")
			}
			for _, r := range rounds {
				in := slices.ContainsFunc(res.Span.Children, func(sp *local.Span) bool {
					return sp.StartNanos <= r.StartNanos && r.StartNanos < sp.StartNanos+sp.DurNanos
				})
				if !in {
					t.Fatalf("run %d round %d starts at %d ns, outside every phase span", r.Run, r.Round, r.StartNanos)
				}
			}
		})
	}
}
