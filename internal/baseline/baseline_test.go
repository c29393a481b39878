package baseline

import (
	"math/rand"
	"strings"
	"testing"

	"deltacolor/graph"
	"deltacolor/graph/gen"
	"deltacolor/internal/core"
	"deltacolor/verify"
)

func checkResult(t *testing.T, g *graph.G, res *core.Result) {
	t.Helper()
	if err := verify.DeltaColoring(g, res.Colors, res.Delta); err != nil {
		t.Fatalf("invalid Δ-coloring: %v", err)
	}
	if res.Rounds <= 0 {
		t.Fatalf("rounds = %d, want > 0", res.Rounds)
	}
	if res.Delta != g.MaxDegree() {
		t.Fatalf("delta = %d, want %d", res.Delta, g.MaxDegree())
	}
}

func TestBaselineOnFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	families := []struct {
		name string
		g    *graph.G
	}{
		{"torus 8x8", gen.Torus(8, 8)},
		{"hypercube d=4", gen.Hypercube(4)},
		{"grid 8x8", gen.Grid(8, 8)},
		{"random 3-regular n=128", gen.MustRandomRegular(rng, 128, 3)},
		{"random 4-regular n=256", gen.MustRandomRegular(rng, 256, 4)},
		{"random 8-regular n=128", gen.MustRandomRegular(rng, 128, 8)},
		{"complete bipartite K55", gen.CompleteBipartite(5, 5)},
		{"clique chain 5x4", gen.CliqueChain(5, 4)},
	}
	for _, tc := range families {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Color(tc.g, 1)
			if err != nil {
				t.Fatalf("baseline: %v", err)
			}
			checkResult(t, tc.g, res)
		})
	}
}

func TestBaselineManySeeds(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := gen.MustRandomRegular(rng, 200, 5)
	for seed := int64(0); seed < 6; seed++ {
		res, err := Color(g, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkResult(t, g, res)
	}
}

func TestBaselineRejectsLowDegree(t *testing.T) {
	if _, err := Color(gen.Cycle(8), 1); err == nil {
		t.Fatal("C8 (Δ=2) accepted, want error")
	}
	if _, err := Color(gen.Path(5), 1); err == nil {
		t.Fatal("P5 accepted, want error")
	}
}

func TestBaselinePhaseAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := gen.MustRandomRegular(rng, 128, 4)
	res, err := Color(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	seenLinial := false
	for _, p := range res.Phases {
		sum += p.Rounds
		if p.Name == "linial" {
			seenLinial = true
		}
	}
	if sum != res.Rounds {
		t.Fatalf("phase sum %d != total %d", sum, res.Rounds)
	}
	if !seenLinial {
		t.Fatal("no 'linial' phase recorded")
	}
}

func TestBaselineRepairBatchStats(t *testing.T) {
	// When the baseline needs token walks, the batched engine's stats must
	// be internally consistent: one rounds entry per batch, and the phase
	// breakdown must carry a token-batch entry per batch.
	for seed := int64(0); seed < 8; seed++ {
		g := gen.MustRandomRegular(rand.New(rand.NewSource(seed)), 96, 4)
		res, err := Color(g, seed)
		if err != nil {
			t.Fatal(err)
		}
		checkResult(t, g, res)
		if len(res.RepairBatchRounds) != res.RepairBatches {
			t.Fatalf("seed %d: %d batch-rounds entries for %d batches", seed, len(res.RepairBatchRounds), res.RepairBatches)
		}
		tokenBatches := 0
		for _, p := range res.Phases {
			if strings.HasPrefix(p.Name, "token-batch[") {
				tokenBatches++
			}
		}
		if tokenBatches != res.RepairBatches {
			t.Fatalf("seed %d: %d token-batch phases for %d batches", seed, tokenBatches, res.RepairBatches)
		}
		if res.Repairs == 0 && res.RepairBatches != 0 {
			t.Fatalf("seed %d: %d batches with no stuck nodes", seed, res.RepairBatches)
		}
		if res.Repairs > 0 && res.RepairBatches == 0 {
			t.Fatalf("seed %d: stuck=%d but no repair batches", seed, res.Repairs)
		}
	}
}

func TestBaselineStuckCountConsistent(t *testing.T) {
	// On a bipartite graph Δ-coloring is easy; the baseline should rarely
	// need token walks, but when it reports stuck nodes (Repairs) the
	// result must still be valid. This is a smoke invariant across
	// several structured inputs.
	inputs := []*graph.G{gen.Torus(6, 6), gen.Hypercube(5), gen.CompleteBipartite(6, 6)}
	for _, g := range inputs {
		res, err := Color(g, 7)
		if err != nil {
			t.Fatal(err)
		}
		if res.Repairs < 0 || res.Repairs > g.N() {
			t.Fatalf("stuck = %d out of range [0,%d]", res.Repairs, g.N())
		}
		checkResult(t, g, res)
	}
}
