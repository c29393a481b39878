package graph

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func triangle() *G {
	g := New(3)
	g.MustEdge(0, 1)
	g.MustEdge(1, 2)
	g.MustEdge(2, 0)
	return g
}

func cycle(n int) *G {
	g := New(n)
	for i := 0; i < n; i++ {
		g.MustEdge(i, (i+1)%n)
	}
	return g
}

func complete(n int) *G {
	g := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.MustEdge(i, j)
		}
	}
	return g
}

func path(n int) *G {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.MustEdge(i, i+1)
	}
	return g
}

func randomGraph(rng *rand.Rand, n int, p float64) *G {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.MustEdge(u, v)
			}
		}
	}
	return g
}

func TestAddEdgeBasics(t *testing.T) {
	g := New(4)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("edge not symmetric")
	}
	if g.M() != 1 {
		t.Fatalf("M=%d", g.M())
	}
	if err := g.AddEdge(0, 1); !errors.Is(err, ErrEdgeExists) {
		t.Fatalf("want ErrEdgeExists, got %v", err)
	}
	if err := g.AddEdge(2, 2); !errors.Is(err, ErrSelfLoop) {
		t.Fatalf("want ErrSelfLoop, got %v", err)
	}
	if err := g.AddEdge(0, 9); err == nil {
		t.Fatal("want out-of-range error")
	}
}

func TestDegrees(t *testing.T) {
	g := triangle()
	if g.MaxDegree() != 2 || g.MinDegree() != 2 {
		t.Fatalf("max=%d min=%d", g.MaxDegree(), g.MinDegree())
	}
	g2 := path(4)
	if g2.MaxDegree() != 2 || g2.MinDegree() != 1 {
		t.Fatalf("path degrees wrong")
	}
	var empty G
	if empty.MaxDegree() != 0 || empty.MinDegree() != 0 {
		t.Fatal("empty graph degrees")
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := New(4)
	g.MustEdge(0, 1)
	c := g.Clone()
	c.MustEdge(2, 3)
	if g.HasEdge(2, 3) {
		t.Fatal("clone shares storage with original")
	}
	if g.M() != 1 || c.M() != 2 {
		t.Fatalf("edge counts: g=%d c=%d", g.M(), c.M())
	}
}

func TestEdgesSorted(t *testing.T) {
	g := New(4)
	g.MustEdge(3, 1)
	g.MustEdge(2, 0)
	g.MustEdge(0, 1)
	es := g.Edges()
	want := [][2]int{{0, 1}, {0, 2}, {1, 3}}
	if len(es) != len(want) {
		t.Fatalf("len=%d", len(es))
	}
	for i := range want {
		if es[i] != want[i] {
			t.Fatalf("edge %d = %v, want %v", i, es[i], want[i])
		}
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := complete(5)
	sub, orig, err := g.InducedSubgraph([]int{1, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if sub.N() != 3 || sub.M() != 3 {
		t.Fatalf("induced K3 wrong: n=%d m=%d", sub.N(), sub.M())
	}
	if orig[0] != 1 || orig[1] != 3 || orig[2] != 4 {
		t.Fatalf("orig mapping %v", orig)
	}
	if _, _, err := g.InducedSubgraph([]int{1, 1}); err == nil {
		t.Fatal("duplicate nodes should error")
	}
}

func TestBFSDistances(t *testing.T) {
	g := cycle(8)
	res := g.BFS(0)
	if res.Dist[4] != 4 {
		t.Fatalf("antipodal dist = %d", res.Dist[4])
	}
	if res.Dist[1] != 1 || res.Dist[7] != 1 {
		t.Fatal("neighbor dist")
	}
	lim := g.BFSLimited(0, 2)
	if lim.Dist[3] != -1 && lim.Dist[3] != 3 {
		// nodes beyond radius must be unvisited
		t.Fatalf("limited BFS overreach: %d", lim.Dist[3])
	}
	if lim.Dist[3] != -1 {
		t.Fatalf("dist 3 should be unreached, got %d", lim.Dist[3])
	}
}

func TestBall(t *testing.T) {
	g := cycle(10)
	ball := g.Ball(0, 2)
	if len(ball) != 5 {
		t.Fatalf("ball size %d", len(ball))
	}
}

func TestMultiSourceDist(t *testing.T) {
	g := path(10)
	dist, nearest := g.MultiSourceDist([]int{0, 9})
	if dist[5] != 4 || nearest[5] != 9 {
		t.Fatalf("dist[5]=%d nearest=%d", dist[5], nearest[5])
	}
	if dist[4] != 4 || nearest[4] != 0 {
		t.Fatalf("dist[4]=%d nearest=%d", dist[4], nearest[4])
	}
	// Node 1 is one hop from both sources: the one listed first wins,
	// whatever the IDs, and a repeated source changes nothing.
	dist, nearest = path(3).MultiSourceDist([]int{2, 0, 2})
	if dist[1] != 1 || nearest[1] != 2 {
		t.Fatalf("path 0-1-2 from [2 0 2]: dist[1]=%d nearest=%d, want 1 and 2", dist[1], nearest[1])
	}
}

func TestConnectedComponents(t *testing.T) {
	g := New(6)
	g.MustEdge(0, 1)
	g.MustEdge(2, 3)
	comp, count := g.ConnectedComponents()
	if count != 4 {
		t.Fatalf("count=%d", count)
	}
	if comp[0] != comp[1] || comp[2] != comp[3] || comp[0] == comp[2] {
		t.Fatal("components wrong")
	}
	if g.IsConnected() {
		t.Fatal("not connected")
	}
	if !cycle(5).IsConnected() {
		t.Fatal("cycle is connected")
	}
}

func TestDiameterRadiusGirth(t *testing.T) {
	g := cycle(8)
	if d := g.Diameter(); d != 4 {
		t.Fatalf("diameter %d", d)
	}
	if r := g.Radius(); r != 4 {
		t.Fatalf("radius %d", r)
	}
	if gir := g.Girth(); gir != 8 {
		t.Fatalf("girth %d", gir)
	}
	if gir := complete(4).Girth(); gir != 3 {
		t.Fatalf("K4 girth %d", gir)
	}
	if gir := path(5).Girth(); gir != -1 {
		t.Fatalf("path girth %d", gir)
	}
	if d := New(3).Diameter(); d != -1 {
		t.Fatalf("disconnected diameter %d", d)
	}
}

func TestPredicates(t *testing.T) {
	cases := []struct {
		name                            string
		g                               *G
		clique, oddCycle, pathP, cycleP bool
	}{
		{"K4", complete(4), true, false, false, false},
		{"K3", triangle(), true, true, false, true},
		{"C5", cycle(5), false, true, false, true},
		{"C6", cycle(6), false, false, false, true},
		{"P4", path(4), false, false, true, false},
		{"K1", New(1), true, false, true, false},
	}
	for _, c := range cases {
		if got := c.g.IsClique(); got != c.clique {
			t.Errorf("%s IsClique=%v", c.name, got)
		}
		if got := c.g.IsOddCycle(); got != c.oddCycle {
			t.Errorf("%s IsOddCycle=%v", c.name, got)
		}
		if got := c.g.IsPath(); got != c.pathP {
			t.Errorf("%s IsPath=%v", c.name, got)
		}
		if got := c.g.IsCycle(); got != c.cycleP {
			t.Errorf("%s IsCycle=%v", c.name, got)
		}
	}
	if cycle(6).IsNice() || path(3).IsNice() || complete(5).IsNice() {
		t.Fatal("paths/cycles/cliques are not nice")
	}
	star := New(5)
	for i := 1; i < 5; i++ {
		star.MustEdge(0, i)
	}
	if !star.IsNice() {
		t.Fatal("star is nice")
	}
}

func TestIsCliqueSetAndInducedCycle(t *testing.T) {
	g := complete(5)
	if !g.IsCliqueSet([]int{0, 2, 4}) {
		t.Fatal("subset of clique is clique")
	}
	c := cycle(6)
	if c.IsCliqueSet([]int{0, 1, 2}) {
		t.Fatal("path in cycle is not a clique")
	}
	isCyc, odd := c.IsInducedCycleSet([]int{0, 1, 2, 3, 4, 5})
	if !isCyc || odd {
		t.Fatalf("C6: cyc=%v odd=%v", isCyc, odd)
	}
	isCyc, _ = c.IsInducedCycleSet([]int{0, 1, 2})
	if isCyc {
		t.Fatal("path is not an induced cycle")
	}
	c5 := cycle(5)
	isCyc, odd = c5.IsInducedCycleSet([]int{0, 1, 2, 3, 4})
	if !isCyc || !odd {
		t.Fatalf("C5: cyc=%v odd=%v", isCyc, odd)
	}
}

func TestBiconnectedComponentsBridge(t *testing.T) {
	// Two triangles joined by a bridge: 3 blocks.
	g := New(6)
	g.MustEdge(0, 1)
	g.MustEdge(1, 2)
	g.MustEdge(2, 0)
	g.MustEdge(2, 3)
	g.MustEdge(3, 4)
	g.MustEdge(4, 5)
	g.MustEdge(5, 3)
	blocks, cut := g.BiconnectedComponents()
	if len(blocks) != 3 {
		t.Fatalf("blocks=%d", len(blocks))
	}
	if !cut[2] || !cut[3] {
		t.Fatal("cut vertices 2 and 3 expected")
	}
	if cut[0] || cut[4] {
		t.Fatal("non-cut flagged")
	}
	total := 0
	for _, b := range blocks {
		total += len(b.Edges)
	}
	if total != g.M() {
		t.Fatalf("blocks cover %d edges, graph has %d", total, g.M())
	}
}

func TestBiconnectedSingleBlock(t *testing.T) {
	g := cycle(7)
	blocks, cut := g.BiconnectedComponents()
	if len(blocks) != 1 || len(blocks[0].Nodes) != 7 {
		t.Fatalf("cycle blocks wrong: %d", len(blocks))
	}
	for v := 0; v < 7; v++ {
		if cut[v] {
			t.Fatal("cycle has no cut vertices")
		}
	}
}

func TestBiconnectedIsolatedAndTree(t *testing.T) {
	g := New(4)
	g.MustEdge(0, 1)
	g.MustEdge(1, 2)
	// node 3 isolated
	blocks, cut := g.BiconnectedComponents()
	if len(blocks) != 3 { // two bridge-blocks + singleton
		t.Fatalf("blocks=%d", len(blocks))
	}
	if !cut[1] {
		t.Fatal("center of path is a cut vertex")
	}
}

// Property: every edge appears in exactly one block.
func TestBlocksPartitionEdgesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 24, 0.12)
		blocks, _ := g.BiconnectedComponents()
		seen := map[[2]int]int{}
		for _, b := range blocks {
			for _, e := range b.Edges {
				u, v := e[0], e[1]
				if u > v {
					u, v = v, u
				}
				seen[[2]int{u, v}]++
			}
		}
		if len(seen) != g.M() {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuotient(t *testing.T) {
	g := path(6)
	// groups: {0,1}, {2,3}, {4,5}, and one overlapping {1,2}
	q := Quotient(g, [][]int{{0, 1}, {2, 3}, {4, 5}, {1, 2}})
	if q.N() != 4 {
		t.Fatalf("quotient n=%d", q.N())
	}
	if !q.HasEdge(0, 1) { // connected by edge 1-2
		t.Fatal("groups 0 and 1 adjacent via edge")
	}
	if !q.HasEdge(0, 3) || !q.HasEdge(1, 3) { // share nodes 1 and 2
		t.Fatal("overlapping groups adjacent")
	}
	if !q.HasEdge(1, 2) { // edge 3-4
		t.Fatal("groups 1,2 adjacent")
	}
	if q.HasEdge(0, 2) {
		t.Fatal("groups 0,2 not adjacent")
	}
}

// Property: BFS distance satisfies the triangle inequality along edges.
func TestBFSTriangleProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 30, 0.1)
		res := g.BFS(0)
		for _, e := range g.Edges() {
			du, dv := res.Dist[e[0]], res.Dist[e[1]]
			if du >= 0 && dv >= 0 && abs(du-dv) > 1 {
				return false
			}
			if (du < 0) != (dv < 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestFromAdjacency(t *testing.T) {
	adj := [][]int{{1, 2}, {0}, {0}}
	g, err := FromAdjacency(adj)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 || g.Deg(0) != 2 {
		t.Fatalf("n=%d m=%d deg0=%d", g.N(), g.M(), g.Deg(0))
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(0, 2) || g.HasEdge(1, 2) {
		t.Fatal("edge set wrong")
	}
	if _, err := FromAdjacency([][]int{{0}}); err == nil {
		t.Fatal("self-loop not rejected")
	}
	if _, err := FromAdjacency([][]int{{1}, {}}); err == nil {
		t.Fatal("asymmetric degree sum not rejected")
	}
	if _, err := FromAdjacency([][]int{{5}}); err == nil {
		t.Fatal("out-of-range neighbor not rejected")
	}
}
