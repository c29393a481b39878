package graph

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// quickGraph builds a random simple graph from the quick-check RNG.
func quickGraph(rng *rand.Rand, maxN int) *G {
	n := 2 + rng.Intn(maxN-1)
	g := New(n)
	// Edge probability tuned so both sparse and dense-ish graphs appear.
	p := rng.Float64() * 0.6
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.MustEdge(u, v)
			}
		}
	}
	return g
}

// Property: the degree sum equals twice the edge count (handshake lemma),
// and HasEdge agrees with the adjacency lists in both directions.
func TestQuickHandshakeAndSymmetry(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := quickGraph(rng, 24)
		sum := 0
		for v := 0; v < g.N(); v++ {
			sum += g.Deg(v)
			for _, u := range g.Neighbors(v) {
				if !g.HasEdge(u, v) || !g.HasEdge(v, u) {
					return false
				}
			}
		}
		return sum == 2*g.M()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: edge-list write/read is the identity on graphs.
func TestQuickEdgeListRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := quickGraph(rng, 24)
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			return false
		}
		h, err := ReadEdgeList(&buf)
		if err != nil || h.N() != g.N() || h.M() != g.M() {
			return false
		}
		for _, e := range g.Edges() {
			if !h.HasEdge(e[0], e[1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: InducedSubgraph preserves exactly the edges among the kept
// nodes.
func TestQuickInducedSubgraph(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := quickGraph(rng, 20)
		var nodes []int
		for v := 0; v < g.N(); v++ {
			if rng.Float64() < 0.5 {
				nodes = append(nodes, v)
			}
		}
		sub, orig, err := g.InducedSubgraph(nodes)
		if err != nil {
			return false
		}
		for i := 0; i < sub.N(); i++ {
			for j := i + 1; j < sub.N(); j++ {
				if sub.HasEdge(i, j) != g.HasEdge(orig[i], orig[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: BFS distances satisfy the triangle-ish property along edges —
// adjacent nodes' distances from any root differ by at most 1 — and every
// reachable node except the root has a parent at distance-1.
func TestQuickBFSDistances(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := quickGraph(rng, 20)
		root := rng.Intn(g.N())
		res := g.BFS(root)
		for _, e := range g.Edges() {
			du, dv := res.Dist[e[0]], res.Dist[e[1]]
			if du < 0 != (dv < 0) {
				return false // one reachable, the other not, yet adjacent
			}
			if du >= 0 && dv >= 0 && (du-dv > 1 || dv-du > 1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: ConnectedComponents labels agree with BFS reachability.
func TestQuickComponentsMatchBFS(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := quickGraph(rng, 18)
		comp, _ := g.ConnectedComponents()
		for v := 0; v < g.N(); v++ {
			res := g.BFS(v)
			for u := 0; u < g.N(); u++ {
				if (res.Dist[u] >= 0) != (comp[u] == comp[v]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
