package core

import (
	"errors"
	"math/rand"
	"testing"

	"deltacolor/graph"
	"deltacolor/graph/gen"
	"deltacolor/verify"
)

func TestDeterministicNetDecOnFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	families := []struct {
		name string
		g    *graph.G
	}{
		{"torus 8x8", gen.Torus(8, 8)},
		{"hypercube d=4", gen.Hypercube(4)},
		{"random 4-regular n=256", gen.MustRandomRegular(rng, 256, 4)},
		{"random 6-regular n=128", gen.MustRandomRegular(rng, 128, 6)},
		{"petersen", gen.Petersen()},
	}
	for _, tc := range families {
		t.Run(tc.name, func(t *testing.T) {
			res, err := DeterministicNetDec(tc.g, 1)
			if err != nil {
				t.Fatalf("DeterministicNetDec: %v", err)
			}
			colorCheck(t, tc.g, res)
		})
	}
}

func TestDeterministicNetDecRejectsBadInputs(t *testing.T) {
	if _, err := DeterministicNetDec(gen.Complete(5), 1); !errors.Is(err, ErrComplete) {
		t.Fatalf("K5: got %v, want ErrComplete", err)
	}
	if _, err := DeterministicNetDec(gen.Cycle(9), 1); !errors.Is(err, ErrDegreeTooSmall) {
		t.Fatalf("C9: got %v, want ErrDegreeTooSmall", err)
	}
}

func TestDeterministicNetDecMultipleSeeds(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	g := gen.MustRandomRegular(rng, 128, 4)
	for seed := int64(0); seed < 4; seed++ {
		res, err := DeterministicNetDec(g, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := verify.DeltaColoring(g, res.Colors, res.Delta); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestShatterOnceInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	g := gen.MustRandomRegular(rng, 1024, 4)
	st := ShatterOnce(g, RandOptions{Seed: 3})

	if st.N != g.N() || st.Delta != 4 {
		t.Fatalf("N=%d Delta=%d, want %d, 4", st.N, st.Delta, g.N())
	}
	if st.P <= 0 || st.Backoff != 6 || st.R <= 0 {
		t.Fatalf("params not auto-filled: %+v", st)
	}
	// Each surviving T-node marks exactly two neighbors, but two T-nodes
	// can mark the same node (they are >= backoff apart, so with b >= 2
	// they cannot share a neighbor; marks are distinct).
	if st.Marked != 2*st.TNodes {
		t.Fatalf("marked=%d, want 2·T-nodes=%d", st.Marked, 2*st.TNodes)
	}
	if st.Survivors < 0 || st.Survivors > st.N {
		t.Fatalf("survivors=%d out of range", st.Survivors)
	}
	if st.MaxComponent > st.Survivors {
		t.Fatalf("max component %d > survivors %d", st.MaxComponent, st.Survivors)
	}
	if (st.Survivors == 0) != (st.Components == 0) {
		t.Fatalf("survivors=%d but components=%d", st.Survivors, st.Components)
	}
	if rate := st.SurvivalRate(); rate < 0 || rate > 1 {
		t.Fatalf("survival rate %v out of [0,1]", rate)
	}
}

func TestShatterOnceZeroGraph(t *testing.T) {
	st := ShatterStats{}
	if st.SurvivalRate() != 0 {
		t.Fatalf("empty stats survival rate = %v, want 0", st.SurvivalRate())
	}
}

func TestShatterOnceSweepBackoff(t *testing.T) {
	// Larger backoff => no more T-nodes than smaller backoff in
	// expectation; here just assert the process stays well-formed across
	// the ablation range used by E10.
	rng := rand.New(rand.NewSource(88))
	g := gen.MustRandomRegular(rng, 512, 4)
	for _, b := range []int{2, 6, 12} {
		st := ShatterOnce(g, RandOptions{Seed: 1, Backoff: b})
		if st.Backoff != b {
			t.Fatalf("backoff %d not honored: %+v", b, st)
		}
		if st.Marked != 2*st.TNodes {
			t.Fatalf("b=%d: marked=%d, want %d", b, st.Marked, 2*st.TNodes)
		}
	}
}

func TestRulingSetViaDecompositionSpacing(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	g := gen.MustRandomRegular(rng, 256, 4)
	// Build a decomposition and derive a spaced ruling set from it.
	res, err := DeterministicNetDec(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Indirectly validated: the run completed with a proper coloring and
	// the Brooks phase (disjoint balls) raised no error.
	if err := verify.DeltaColoring(g, res.Colors, res.Delta); err != nil {
		t.Fatal(err)
	}
}

// TestSmallDeltaShatteringCoversAll checks Section 4.4's claim at laptop
// scale: with the small-Δ parameterization (r = Θ(log log n)) the
// shattering phase leaves nothing behind whenever at least one T-node
// survives — the algorithm can then skip phase (6) entirely.
func TestSmallDeltaShatteringCoversAll(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	covered := 0
	trials := 6
	for i := 0; i < trials; i++ {
		g := gen.MustRandomRegular(rng, 2048, 3)
		st := ShatterOnce(g, RandOptions{Seed: int64(i), Backoff: 3})
		if st.TNodes > 0 && st.Survivors == 0 {
			covered++
		}
		if st.TNodes > 0 && st.Survivors > 0 {
			t.Fatalf("trial %d: %d T-nodes but %d survivors — the Θ(log log n) radius should cover the graph at this scale", i, st.TNodes, st.Survivors)
		}
	}
	if covered == 0 {
		t.Fatal("no trial produced a surviving T-node; cannot validate §4.4 at this scale")
	}
}

// TestRandomizedOnDCCGadget: the NearRegularWithDCC family glues a
// canonical degree-choosable component onto a regular graph, so the DCC
// machinery (phase 1-3, brute-force base coloring) must actually engage.
func TestRandomizedOnDCCGadget(t *testing.T) {
	rng := rand.New(rand.NewSource(505))
	for i := 0; i < 4; i++ {
		g, err := gen.NearRegularWithDCC(rng, 128, 4)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Randomized(g, RandOptions{Seed: int64(i)})
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		colorCheck(t, g, res)
	}
}
