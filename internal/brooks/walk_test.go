package brooks

import (
	"math/rand"
	"slices"
	"testing"

	"deltacolor/graph"
	"deltacolor/graph/gen"
	"deltacolor/internal/gallai"
	"deltacolor/verify"
)

// rainbowAt recolors v's neighbors so all delta colors appear around v,
// keeping the coloring proper elsewhere. It solves the small
// color-to-neighbor assignment by backtracking (colors and neighbors both
// number at most delta). Returns success; on failure colors may be
// partially modified but stays proper away from v.
func rainbowAt(g *graph.G, colors []int, v, delta int) bool {
	nbrs := g.Neighbors(v)
	if len(nbrs) < delta {
		return false
	}
	// canTake[u][c]: recoloring u to c keeps the coloring proper (ignoring
	// v itself, which is uncolored).
	canTake := func(u, c int) bool {
		for _, w := range g.Neighbors(u) {
			if w != v && colors[w] == c {
				return false
			}
		}
		// u's own neighbors among nbrs will be reassigned too; handled by
		// the assignment check below (pairwise distinctness suffices only
		// if adjacent neighbors get distinct colors, which backtracking
		// enforces via the evolving colors array).
		return true
	}
	assigned := make([]int, len(nbrs)) // neighbor index -> color, -1 unset
	for i := range assigned {
		assigned[i] = -1
	}
	orig := make([]int, len(nbrs))
	for i, u := range nbrs {
		orig[i] = colors[u]
	}
	var place func(c int) bool
	place = func(c int) bool {
		if c >= delta {
			return true
		}
		for i, u := range nbrs {
			if assigned[i] >= 0 {
				continue
			}
			if !canTake(u, c) {
				continue
			}
			assigned[i] = c
			old := colors[u]
			colors[u] = c
			if place(c + 1) {
				return true
			}
			colors[u] = old
			assigned[i] = -1
		}
		return false
	}
	if !place(0) {
		// Restore.
		for i, u := range nbrs {
			colors[u] = orig[i]
		}
		return false
	}
	return true
}

// validColoring builds a proper delta-coloring greedily with local repair
// via FixOne — for use as a test fixture.
func validColoring(t *testing.T, g *graph.G, delta int) []int {
	t.Helper()
	colors := make([]int, g.N())
	for v := range colors {
		colors[v] = -1
	}
	for v := 0; v < g.N(); v++ {
		if c := FreeColor(g, colors, v, delta); c >= 0 {
			colors[v] = c
			continue
		}
		res, err := FixOne(g, colors, v, delta)
		if err != nil {
			t.Fatalf("fixture coloring at %d: %v", v, err)
		}
		copy(colors, res.Colors)
	}
	if err := verify.DeltaColoring(g, colors, delta); err != nil {
		t.Fatalf("fixture invalid: %v", err)
	}
	return colors
}

// stuckInstance builds a proper partial delta-coloring of g where v is
// uncolored and its neighbors hold all delta colors, by brute-forcing the
// rest of the graph against forced singleton lists on N(v). Returns nil
// when no such coloring exists (e.g. bipartite rigidity).
func stuckInstance(t *testing.T, g *graph.G, v, delta int) []int {
	t.Helper()
	if g.Deg(v) < delta {
		return nil
	}
	var nodes []int
	for u := 0; u < g.N(); u++ {
		if u != v {
			nodes = append(nodes, u)
		}
	}
	// lists by node ID; v's entry is dropped with v.
	lists := make([][]int, g.N())
	for u := range lists {
		for c := 0; c < delta; c++ {
			lists[u] = append(lists[u], c)
		}
	}
	for i, u := range g.Neighbors(v) {
		if i >= delta {
			break
		}
		lists[u] = []int{i}
	}
	empty := make([]int, g.N())
	for i := range empty {
		empty[i] = -1
	}
	sol, err := gallai.BruteListColor(g, nodes, slices.Delete(lists, v, v+1))
	if err != nil {
		return nil
	}
	colors := append([]int(nil), empty...)
	for i, u := range nodes {
		colors[u] = sol[i]
	}
	if err := verify.PartialColoring(g, colors, delta); err != nil {
		t.Fatalf("stuckInstance produced improper coloring: %v", err)
	}
	return colors
}

// TestWalkForcedConstructed: constructed stuck instances (all Δ colors
// around v) must resolve via a token walk, exercising walkAndResolve.
// Bipartite graphs (torus, hypercube) admit no stuck instance — every
// neighbor of v is blocked from the opposite bipartition color — so the
// fixtures are non-bipartite: the Petersen graph and a small random
// 4-regular graph.
func TestWalkForcedConstructed(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	fixtures := []struct {
		name string
		g    *graph.G
	}{
		{"petersen", gen.Petersen()},
		{"random 4-regular n=20", gen.MustRandomRegular(rng, 20, 4)},
		{"random 3-regular n=14", gen.MustRandomRegular(rng, 14, 3)},
	}
	for _, f := range fixtures {
		t.Run(f.name, func(t *testing.T) {
			delta := f.g.MaxDegree()
			var colors []int
			v := -1
			for cand := 0; cand < f.g.N(); cand++ {
				if colors = stuckInstance(t, f.g, cand, delta); colors != nil {
					v = cand
					break
				}
			}
			if v < 0 {
				t.Skip("no stuck instance exists on this fixture")
			}
			res, err := FixOne(f.g, colors, v, delta)
			if err != nil {
				t.Fatalf("FixOne: %v", err)
			}
			if err := verify.DeltaColoring(f.g, res.Colors, delta); err != nil {
				t.Fatalf("invalid result: %v", err)
			}
			if res.Mode == ModeFree {
				t.Fatal("instance was not stuck (mode=free)")
			}
			if res.Radius <= 0 && res.Mode != ModeFallback {
				t.Fatalf("walk radius %d, want > 0", res.Radius)
			}
		})
	}
}

// TestWalkForcedOnRegular: random regular graphs mix low-degree-free,
// DCC and fallback resolutions.
func TestWalkForcedOnRegular(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := gen.MustRandomRegular(rng, 256, 4)
	delta := 4
	base := validColoring(t, g, delta)

	modes := map[Mode]int{}
	for trial := 0; trial < 60; trial++ {
		v := rng.Intn(g.N())
		colors := append([]int(nil), base...)
		colors[v] = -1
		if !rainbowAt(g, colors, v, delta) {
			continue
		}
		res, err := FixOne(g, colors, v, delta)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := verify.DeltaColoring(g, res.Colors, delta); err != nil {
			t.Fatalf("trial %d: invalid result: %v", trial, err)
		}
		modes[res.Mode]++
		// Theorem 5 bound.
		bound := 3 * SearchRadius(g.N(), delta)
		if res.Radius > bound {
			t.Fatalf("trial %d: radius %d > 3·searchRadius %d", trial, res.Radius, bound)
		}
	}
	nonFree := 0
	for m, k := range modes {
		if m != ModeFree {
			nonFree += k
		}
	}
	if nonFree == 0 {
		t.Fatal("no trial exercised the walk machinery")
	}
}

// TestWalkToLowDegreeTarget: on a graph with an explicit low-degree sink,
// a stuck node near it resolves by walking there.
func TestWalkToLowDegreeTarget(t *testing.T) {
	// A 4-regular-ish band with one node of degree 3: remove one edge of a
	// torus.
	g0 := gen.Torus(6, 6)
	edges := g0.Edges()
	g := graph.New(g0.N())
	for _, e := range edges[1:] {
		g.MustEdge(e[0], e[1])
	}
	delta := 4
	base := validColoring(t, g, delta)

	rng := rand.New(rand.NewSource(13))
	seenLow := false
	for trial := 0; trial < 80 && !seenLow; trial++ {
		v := rng.Intn(g.N())
		if g.Deg(v) < delta {
			continue
		}
		colors := append([]int(nil), base...)
		colors[v] = -1
		if !rainbowAt(g, colors, v, delta) {
			continue
		}
		res, err := FixOne(g, colors, v, delta)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := verify.DeltaColoring(g, res.Colors, delta); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.Mode == ModeLowDegree {
			seenLow = true
		}
	}
	if !seenLow {
		t.Skip("low-degree escape never selected on this fixture (DCCs were always closer)")
	}
}

// TestFallbackRecolorDirect exercises the expanding-ball fallback on a
// configuration where it must succeed at small radius.
func TestFallbackRecolorDirect(t *testing.T) {
	g := gen.Torus(5, 5)
	delta := 4
	base := validColoring(t, g, delta)
	colors := append([]int(nil), base...)
	colors[7] = -1
	f := newFixer(g, delta)
	f.start(7)
	res, err := f.fallbackRecolor(colors, 7)
	if err != nil {
		t.Fatalf("fallback: %v", err)
	}
	if res.Mode != ModeFallback {
		t.Fatalf("mode = %v, want fallback", res.Mode)
	}
	if err := verify.DeltaColoring(g, colors, delta); err != nil {
		t.Fatalf("fallback produced invalid coloring: %v", err)
	}
}

// TestDeltaListsExcludesBoundary: the fallback's list construction must
// remove exactly the colors of outside neighbors.
func TestDeltaListsExcludesBoundary(t *testing.T) {
	// Path 0-1-2, delta 3; ball = {1}, outside neighbors 0 (color 2) and
	// 2 (color 0) => list for 1 is {1}.
	g := graph.New(3)
	g.MustEdge(0, 1)
	g.MustEdge(1, 2)
	colors := []int{2, -1, 0}
	lists := gallai.DegreeLists(g, []int{1}, colors, 3)
	if got := lists[0]; len(got) != 1 || got[0] != 1 {
		t.Fatalf("list = %v, want [1]", got)
	}
}
