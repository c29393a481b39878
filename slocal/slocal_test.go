package slocal

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"deltacolor/graph"
	"deltacolor/graph/gen"
	"deltacolor/internal/brooks"
	"deltacolor/verify"
)

func TestRunRejectsBadOrders(t *testing.T) {
	g := gen.Cycle(4)
	if _, err := Run(g, []int{0, 1, 2}, 1, func(*State) {}); err == nil {
		t.Fatal("short order accepted")
	}
	if _, err := Run(g, []int{0, 1, 2, 2}, 1, func(*State) {}); err == nil {
		t.Fatal("duplicate order accepted")
	}
	if _, err := Run(g, []int{0, 1, 2, 9}, 1, func(*State) {}); err == nil {
		t.Fatal("out-of-range order accepted")
	}
}

func TestRunMeasuresLocality(t *testing.T) {
	g := gen.Path(9)
	order := []int{0, 1, 2, 3, 4, 5, 6, 7, 8}
	res, err := Run(g, order, 3, func(s *State) {
		// Each node reads its neighbor two hops away when it exists.
		v := s.Center
		if v+2 < s.G.N() {
			s.Read(v + 2)
		}
		s.Write(v, v)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxLocality != 2 {
		t.Fatalf("locality = %d, want 2", res.MaxLocality)
	}
}

func TestRunPanicsOutsideRadius(t *testing.T) {
	g := gen.Path(9)
	defer func() {
		if recover() == nil {
			t.Fatal("read at distance 5 with radius 2 did not panic")
		}
	}()
	order := make([]int, g.N())
	for i := range order {
		order[i] = i
	}
	_, _ = Run(g, order, 2, func(s *State) {
		if s.Center == 0 {
			s.Read(5)
		}
		s.Write(s.Center, 0)
	})
}

// TestRunPanicsOnNeighborAtRadiusZero: a radius-0 step may touch only
// its center, so reading a neighbor must panic like any access outside
// the ball.
func TestRunPanicsOnNeighborAtRadiusZero(t *testing.T) {
	g := gen.Path(3)
	defer func() {
		if recover() == nil {
			t.Fatal("read of a neighbor with radius 0 did not panic")
		}
	}()
	_, _ = Run(g, []int{1, 0, 2}, 0, func(s *State) {
		if s.Center == 1 {
			s.Read(0)
		}
		s.Write(s.Center, 0)
	})
}

func TestDeltaColorVariousOrders(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := gen.MustRandomRegular(rng, 128, 4)
	n := g.N()

	orders := map[string][]int{
		"identity": seq(n),
		"reverse":  rev(n),
		"random":   rng.Perm(n),
	}
	bound := 3*searchBound(n, 4) + 1
	for name, order := range orders {
		colors, loc, err := DeltaColor(g, order)
		if err != nil {
			t.Fatalf("%s order: %v", name, err)
		}
		if err := verify.DeltaColoring(g, colors, 4); err != nil {
			t.Fatalf("%s order: %v", name, err)
		}
		if loc > bound {
			t.Fatalf("%s order: locality %d > bound %d", name, loc, bound)
		}
	}
}

func TestDeltaColorStructuredFamilies(t *testing.T) {
	families := []*graph.G{
		gen.Torus(8, 8),
		gen.Hypercube(4),
		gen.Petersen(),
		gen.CliqueChain(4, 4),
	}
	rng := rand.New(rand.NewSource(11))
	for i, g := range families {
		order := rng.Perm(g.N())
		colors, _, err := DeltaColor(g, order)
		if err != nil {
			t.Fatalf("family %d: %v", i, err)
		}
		if err := verify.DeltaColoring(g, colors, g.MaxDegree()); err != nil {
			t.Fatalf("family %d: %v", i, err)
		}
	}
}

func TestDeltaColorRejectsLowDegree(t *testing.T) {
	g := gen.Cycle(6)
	if _, _, err := DeltaColor(g, seq(6)); err == nil {
		t.Fatal("Δ=2 accepted")
	}
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func rev(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = n - 1 - i
	}
	return out
}

// searchBound mirrors brooks.SearchRadius for the locality assertion
// without exporting it through the test.
func searchBound(n, delta int) int {
	return int(math.Ceil(2 * math.Log(float64(n)) / math.Log(float64(delta-1))))
}

// deltaColorRebuild is the pre-PR-4 reference implementation of DeltaColor:
// it rebuilds the full partial slice with an O(n) scan before every Brooks
// call and writes back with an O(n) diff scan. Kept verbatim so the
// incremental-bookkeeping path can be asserted byte-identical against it.
func deltaColorRebuild(g *graph.G, order []int) (colors []int, locality int, err error) {
	delta := g.MaxDegree()
	if delta < 3 {
		return nil, 0, fmt.Errorf("slocal: Δ=%d < 3", delta)
	}
	radius := 3*brooks.SearchRadius(g.N(), delta) + 1

	res, err := Run(g, order, radius, func(s *State) {
		v := s.Center
		used := make([]bool, delta)
		for _, u := range s.G.Neighbors(v) {
			if c, ok := s.Read(u).(int); ok {
				used[c] = true
			}
		}
		for c := 0; c < delta; c++ {
			if !used[c] {
				s.Write(v, c)
				return
			}
		}
		partial := make([]int, s.G.N())
		for u := 0; u < s.G.N(); u++ {
			partial[u] = -1
			if c, ok := s.outs[u].(int); ok {
				partial[u] = c
			}
		}
		fix, err := brooks.FixOne(s.G, partial, v, delta)
		if err != nil {
			panic(fmt.Sprintf("slocal: brooks at %d: %v", v, err))
		}
		for u := 0; u < s.G.N(); u++ {
			if fix.Colors[u] != partial[u] || u == v {
				if fix.Colors[u] >= 0 {
					s.Write(u, fix.Colors[u])
				}
			}
		}
	})
	if err != nil {
		return nil, 0, err
	}
	colors = make([]int, g.N())
	for v := range colors {
		c, ok := res.Outputs[v].(int)
		if !ok {
			return nil, 0, fmt.Errorf("slocal: node %d left uncolored", v)
		}
		colors[v] = c
	}
	if err := verify.DeltaColoring(g, colors, delta); err != nil {
		return nil, 0, err
	}
	return colors, res.MaxLocality, nil
}

// TestDeltaColorMatchesRebuildPath pins the incremental partial-coloring
// bookkeeping byte-identical to the old rebuild-per-step path: same colors,
// same measured locality, across graph families and adversarial orders.
func TestDeltaColorMatchesRebuildPath(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	graphs := []*graph.G{
		gen.MustRandomRegular(rng, 96, 4),
		gen.MustRandomRegular(rng, 64, 3),
		gen.Torus(6, 6),
		gen.Hypercube(4),
	}
	for gi, g := range graphs {
		n := g.N()
		rev := make([]int, n)
		for i := range rev {
			rev[i] = n - 1 - i
		}
		orders := [][]int{seq(n), rev, rng.Perm(n)}
		for oi, order := range orders {
			got, gotLoc, err := DeltaColor(g, order)
			if err != nil {
				t.Fatalf("graph %d order %d: %v", gi, oi, err)
			}
			want, wantLoc, err := deltaColorRebuild(g, order)
			if err != nil {
				t.Fatalf("graph %d order %d (rebuild): %v", gi, oi, err)
			}
			if gotLoc != wantLoc {
				t.Fatalf("graph %d order %d: locality %d != rebuild %d", gi, oi, gotLoc, wantLoc)
			}
			for v := range got {
				if got[v] != want[v] {
					t.Fatalf("graph %d order %d node %d: color %d != rebuild %d", gi, oi, v, got[v], want[v])
				}
			}
		}
	}
}

var sinkSLOCALColors []int

// BenchmarkDeltaColorN2048 runs the Remark 17 SLOCAL Δ-coloring on a
// random 4-regular graph with n = 2048 in a random order. Its radius,
// 3·SearchRadius+1, covers the whole graph, so every access that paid
// for a BFS from the center paid for all n nodes.
func BenchmarkDeltaColorN2048(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := gen.MustRandomRegular(rng, 2048, 4)
	order := rng.Perm(g.N())
	b.ReportAllocs()
	for b.Loop() {
		colors, _, err := DeltaColor(g, order)
		if err != nil {
			b.Fatal(err)
		}
		sinkSLOCALColors = colors
	}
}
