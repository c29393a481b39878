package deltacolor_test

// Integration tests across the public packages: graph I/O -> coloring ->
// verification, algorithm agreement, and the public API's contract on
// every generator family.

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"deltacolor"
	"deltacolor/graph"
	"deltacolor/graph/gen"
	"deltacolor/slocal"
	"deltacolor/verify"
)

// TestRoundTripThenColor exercises the CLI's data path: generate, write,
// re-read, color, verify.
func TestRoundTripThenColor(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := gen.MustRandomRegular(rng, 256, 4)

	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	h, err := graph.ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}

	res, err := deltacolor.Color(h, deltacolor.Options{Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	// The coloring of the re-read graph must be valid on the original too
	// (they are the same graph).
	if err := verify.DeltaColoring(g, res.Colors, res.Delta); err != nil {
		t.Fatal(err)
	}
}

// TestAllAlgorithmsAgreeOnValidity runs every algorithm on every nice
// generator family and demands a valid Δ-coloring from each.
func TestAllAlgorithmsAgreeOnValidity(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	families := map[string]*graph.G{
		"random-4-regular": gen.MustRandomRegular(rng, 128, 4),
		"torus":            gen.Torus(8, 8),
		"hypercube":        gen.Hypercube(4),
		"petersen":         gen.Petersen(),
		"circulant":        gen.MustCirculant(64, []int{1, 5}),
		"clique-chain":     gen.CliqueChain(4, 4),
		"bipartite-3reg":   gen.MustRandomBipartiteRegular(rng, 32, 3),
	}
	algs := []deltacolor.Algorithm{
		deltacolor.AlgRandomized,
		deltacolor.AlgDeterministic,
		deltacolor.AlgNetDec,
		deltacolor.AlgBaseline,
	}
	for name, g := range families {
		for _, alg := range algs {
			res, err := deltacolor.Color(g, deltacolor.Options{Algorithm: alg, Seed: 1})
			if err != nil {
				t.Fatalf("%s/%v: %v", name, alg, err)
			}
			if err := verify.DeltaColoring(g, res.Colors, g.MaxDegree()); err != nil {
				t.Fatalf("%s/%v: %v", name, alg, err)
			}
			if res.Algorithm != alg {
				t.Fatalf("%s: result reports %v, want %v", name, res.Algorithm, alg)
			}
		}
	}
}

// TestPublicVsSLOCALAgree: the LOCAL pipeline and the SLOCAL simulation
// both must produce valid Δ-colorings of the same instance.
func TestPublicVsSLOCALAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	g := gen.MustRandomRegular(rng, 128, 4)

	res, err := deltacolor.Color(g, deltacolor.Options{Seed: 37})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.DeltaColoring(g, res.Colors, 4); err != nil {
		t.Fatal(err)
	}

	colors, _, err := slocal.DeltaColor(g, rng.Perm(g.N()))
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.DeltaColoring(g, colors, 4); err != nil {
		t.Fatal(err)
	}
}

// TestColorQuickProperty: for random nice regular graphs of random degree
// and size, Color always returns a valid coloring using exactly maxdeg
// colors or fewer.
func TestColorQuickProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 3 + rng.Intn(4)         // Δ in [3, 6]
		n := (16 + rng.Intn(48)) * 2 // even n in [32, 126]
		if n*d%2 != 0 {
			n++
		}
		g, err := gen.RandomRegular(rng, n, d)
		if err != nil {
			return true // infeasible parameters are not a failure
		}
		res, err := deltacolor.Color(g, deltacolor.Options{Seed: seed})
		if err != nil {
			// Only the documented precondition errors are acceptable.
			return errors.Is(err, deltacolor.ErrComplete) ||
				errors.Is(err, deltacolor.ErrNotNice) ||
				errors.Is(err, deltacolor.ErrDegreeTooSmall)
		}
		return verify.DeltaColoring(g, res.Colors, res.Delta) == nil &&
			verify.CountColors(res.Colors) <= res.Delta
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestAlgorithmString covers the enum's String method including the
// unknown branch.
func TestAlgorithmString(t *testing.T) {
	want := map[deltacolor.Algorithm]string{
		deltacolor.AlgAuto:          "auto",
		deltacolor.AlgRandomized:    "randomized",
		deltacolor.AlgDeterministic: "deterministic",
		deltacolor.AlgBaseline:      "baseline",
		deltacolor.AlgNetDec:        "netdec",
		deltacolor.Algorithm(99):    "algorithm(99)",
	}
	for alg, s := range want {
		if got := alg.String(); got != s {
			t.Fatalf("%d.String() = %q, want %q", int(alg), got, s)
		}
	}
}

// TestUnknownAlgorithmRejected: Color rejects undefined algorithm values.
func TestUnknownAlgorithmRejected(t *testing.T) {
	g := gen.Torus(4, 4)
	if _, err := deltacolor.Color(g, deltacolor.Options{Algorithm: deltacolor.Algorithm(99)}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

// TestDisconnectedNiceComponents: the LOCAL model colors disconnected
// graphs componentwise for free; the API must accept them.
func TestDisconnectedNiceComponents(t *testing.T) {
	g := graph.New(32)
	t1 := gen.Torus(4, 4)
	for _, e := range t1.Edges() {
		g.MustEdge(e[0], e[1])
		g.MustEdge(e[0]+16, e[1]+16)
	}
	res, err := deltacolor.Color(g, deltacolor.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.DeltaColoring(g, res.Colors, res.Delta); err != nil {
		t.Fatal(err)
	}
}

// TestCatalogColoring: every catalog cubic graph is nice (3-regular,
// neither K4 nor a cycle), so Brooks' theorem grants a 3-coloring; every
// algorithm must find one. High-girth cubic graphs are the hardest Δ = 3
// instances: locally tree-like, no nearby DCC shortcuts.
func TestCatalogColoring(t *testing.T) {
	algs := []deltacolor.Algorithm{
		deltacolor.AlgRandomized,
		deltacolor.AlgDeterministic,
		deltacolor.AlgNetDec,
		deltacolor.AlgBaseline,
	}
	for _, ng := range gen.Catalog() {
		g := ng.Build()
		for _, alg := range algs {
			res, err := deltacolor.Color(g, deltacolor.Options{Algorithm: alg, Seed: 3})
			if err != nil {
				t.Fatalf("%s/%v: %v", ng.Name, alg, err)
			}
			if err := verify.DeltaColoring(g, res.Colors, 3); err != nil {
				t.Fatalf("%s/%v: %v", ng.Name, alg, err)
			}
		}
		// SLOCAL too.
		order := make([]int, g.N())
		for i := range order {
			order[i] = i
		}
		colors, _, err := slocal.DeltaColor(g, order)
		if err != nil {
			t.Fatalf("%s/slocal: %v", ng.Name, err)
		}
		if err := verify.DeltaColoring(g, colors, 3); err != nil {
			t.Fatalf("%s/slocal: %v", ng.Name, err)
		}
	}
}
