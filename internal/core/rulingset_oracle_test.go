package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"deltacolor/graph"
	"deltacolor/graph/gen"
	"deltacolor/internal/brooks"
)

// This file freezes the original AGLP recursion — fresh candidate slices
// at every recursion node and a full-graph MultiSourceDist at every
// merge — as a test-only oracle. DetRulingSetCompute must return exactly
// its set.

func oracleAGLPRec(g *graph.G, candidates []int, k, bit int) []int {
	if len(candidates) == 0 {
		return nil
	}
	if len(candidates) == 1 || bit < 0 {
		return candidates[:1]
	}
	var c0, c1 []int
	for _, v := range candidates {
		if v&(1<<bit) == 0 {
			c0 = append(c0, v)
		} else {
			c1 = append(c1, v)
		}
	}
	s0 := oracleAGLPRec(g, c0, k, bit-1)
	s1 := oracleAGLPRec(g, c1, k, bit-1)
	if len(s0) == 0 {
		return s1
	}
	dist, _ := g.MultiSourceDist(s0)
	out := append([]int(nil), s0...)
	for _, v := range s1 {
		if dist[v] < 0 || dist[v] >= k {
			out = append(out, v)
		}
	}
	return out
}

func oracleRulingSet(g *graph.G, active []bool, k int) []bool {
	n := g.N()
	bits := 0
	for 1<<bits < n {
		bits++
	}
	var candidates []int
	for v := 0; v < n; v++ {
		if active == nil || active[v] {
			candidates = append(candidates, v)
		}
	}
	in := make([]bool, n)
	for _, v := range oracleAGLPRec(g, candidates, k, bits-1) {
		in[v] = true
	}
	return in
}

// disjointUnion places the parts side by side, part i's node v becoming
// v plus the sizes of parts 0..i-1.
func disjointUnion(parts ...*graph.G) *graph.G {
	n := 0
	for _, p := range parts {
		n += p.N()
	}
	g := graph.New(n)
	off := 0
	for _, p := range parts {
		for _, e := range p.Edges() {
			g.MustEdge(off+e[0], off+e[1])
		}
		off += p.N()
	}
	return g
}

// permuted relabels g's nodes by a random permutation, so that
// components interleave in ID order.
func permuted(rng *rand.Rand, g *graph.G) *graph.G {
	perm := rng.Perm(g.N())
	h := graph.New(g.N())
	for _, e := range g.Edges() {
		h.MustEdge(perm[e[0]], perm[e[1]])
	}
	return h
}

func rulingSetOracleFamilies() []struct {
	name string
	g    *graph.G
} {
	rng := rand.New(rand.NewSource(16))
	union := disjointUnion(gen.Path(9), gen.Torus(6, 6), graph.New(3), gen.MustRandomRegular(rng, 64, 4), gen.Cycle(40))
	return []struct {
		name string
		g    *graph.G
	}{
		{"rr4 n=256", gen.MustRandomRegular(rng, 256, 4)},
		{"rr3 n=200", gen.MustRandomRegular(rng, 200, 3)},
		{"torus 8x8", gen.Torus(8, 8)},
		{"torus 15x15", gen.Torus(15, 15)},
		{"torus 4x40", gen.Torus(4, 40)},
		{"grid 6x6", gen.Grid(6, 6)},
		{"grid 3x100", gen.Grid(3, 100)},
		{"path 300", gen.Path(300)},
		{"gallai tree", gen.GallaiTree(rng, 30, 4)},
		{"gnp n=150", gen.GNPMaxDeg(rng, 150, 0.02, 5)},
		{"union with isolated nodes", union},
		{"permuted union", permuted(rng, union)},
		{"single node", graph.New(1)},
	}
}

// TestDetRulingSetMatchesOracle compares InSet with the frozen recursion
// on every family, at k in {1, 2, 3, 5, bigR} and with no active set,
// every other node active, and a random third active.
func TestDetRulingSetMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	shortcut, probe := 0, 0
	for _, fam := range rulingSetOracleFamilies() {
		g := fam.g
		n := g.N()
		bigR := 6*brooks.SearchRadius(n, g.MaxDegree()) + 3
		everyOther := make([]bool, n)
		third := make([]bool, n)
		for v := range everyOther {
			everyOther[v] = v%2 == 0
			third[v] = rng.Intn(3) == 0
		}
		actives := []struct {
			name   string
			active []bool
		}{{"all", nil}, {"every other", everyOther}, {"random third", third}}
		ecc0 := slices.Max(g.BFS(0).Dist)
		for _, k := range []int{1, 2, 3, 5, bigR} {
			if ecc0 > 0 && 2*ecc0 <= k-1 {
				shortcut++
			} else if 2*ecc0 > k-1 && k > 1 {
				probe++
			}
			for _, act := range actives {
				t.Run(fmt.Sprintf("%s/k=%d/%s", fam.name, k, act.name), func(t *testing.T) {
					want := oracleRulingSet(g, act.active, k)
					got := DetRulingSetCompute(g, act.active, k).InSet
					for v := range want {
						if got[v] != want[v] {
							t.Fatalf("node %d: in set = %v, oracle %v", v, got[v], want[v])
						}
					}
				})
			}
		}
	}
	// Both ways of settling a merge must be exercised: node 0's component
	// is small enough for the shortcut at some k, and too wide at others.
	if shortcut == 0 || probe == 0 {
		t.Fatalf("cases on the shortcut %d, on the probe %d: want both > 0", shortcut, probe)
	}
}

var sinkRulingSet *DetRulingSet

// BenchmarkDetRulingSet times the ruling set the deterministic pipeline
// builds its base layer from (k = 6·brooks.SearchRadius+3). On rr4 every
// component's diameter is below k-1, so merges take the component
// shortcut; the 100x100 torus's is not, so they take the bounded probe.
func BenchmarkDetRulingSet(b *testing.B) {
	for _, bc := range []struct {
		name string
		g    *graph.G
	}{
		{"rr4-n2048", gen.MustRandomRegular(rand.New(rand.NewSource(1)), 2048, 4)},
		{"torus-100x100", gen.Torus(100, 100)},
	} {
		k := 6*brooks.SearchRadius(bc.g.N(), bc.g.MaxDegree()) + 3
		b.Run(fmt.Sprintf("%s/k=%d", bc.name, k), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				sinkRulingSet = DetRulingSetCompute(bc.g, nil, k)
			}
		})
	}
}
