package gallai

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"deltacolor/graph"
	"deltacolor/graph/gen"
)

// This file freezes the original map-based DCC search — per-call
// BFSLimited arrays, a map-keyed branch table over the whole radius-r
// ball, an insertion sort over every cycle-closing edge, and set
// predicates on InducedSubgraph copies — as a test-only oracle. Finder
// must return exactly what it returns, node by node.

func oracleFindDCC(g *graph.G, v, r int) []int {
	if r < 1 {
		return nil
	}
	if got := oracleCycleDCC(g, v, r); got != nil {
		return got
	}
	ball := g.Ball(v, 2*r)
	if len(ball) <= 48 {
		if got := oracleBlockDCC(g, ball, r); got != nil {
			return got
		}
	}
	return nil
}

func oracleCycleDCC(g *graph.G, v, r int) []int {
	for _, cyc := range oracleShortCyclesThrough(g, v, r) {
		if rad := oracleSetRadius(g, cyc); rad < 0 || rad > r {
			continue
		}
		if oracleIsDCCSet(g, cyc) {
			return cyc
		}
		inCyc := make(map[int]bool, len(cyc))
		for _, u := range cyc {
			inCyc[u] = true
		}
		cand := map[int]int{}
		var candOrder []int
		for _, u := range cyc {
			for _, x := range g.Neighbors(u) {
				if !inCyc[x] {
					if cand[x] == 0 {
						candOrder = append(candOrder, x)
					}
					cand[x]++
				}
			}
		}
		for _, x := range candOrder {
			if cand[x] < 2 {
				continue
			}
			ext := append(append([]int(nil), cyc...), x)
			if rad := oracleSetRadius(g, ext); rad < 0 || rad > r {
				continue
			}
			if oracleIsDCCSet(g, ext) {
				return ext
			}
		}
	}
	return nil
}

func oracleShortCyclesThrough(g *graph.G, v, r int) [][]int {
	res := g.BFSLimited(v, r)
	branch := make(map[int]int)
	branch[v] = -1
	for _, u := range res.Order {
		if u == v {
			continue
		}
		if p := res.Parent[u]; p == v {
			branch[u] = u
		} else {
			branch[u] = branch[p]
		}
	}
	type edge struct{ x, y, length int }
	var closers []edge
	for _, x := range res.Order {
		for _, y := range g.Neighbors(x) {
			if x >= y {
				continue
			}
			dy, ok := branch[y]
			if !ok || res.Parent[y] == x || res.Parent[x] == y || branch[x] == dy {
				continue
			}
			closers = append(closers, edge{x, y, res.Dist[x] + res.Dist[y] + 1})
		}
	}
	for i := 1; i < len(closers); i++ {
		for j := i; j > 0 && closers[j].length < closers[j-1].length; j-- {
			closers[j], closers[j-1] = closers[j-1], closers[j]
		}
	}
	var out [][]int
	for i := 0; i < len(closers) && len(out) < 8; i++ {
		e := closers[i]
		set := map[int]bool{}
		for u := e.x; u != -1; u = res.Parent[u] {
			set[u] = true
		}
		for u := e.y; u != -1; u = res.Parent[u] {
			set[u] = true
		}
		nodes := make([]int, 0, len(set))
		for u := range set {
			nodes = append(nodes, u)
		}
		sort.Ints(nodes)
		out = append(out, nodes)
	}
	return out
}

func oracleBlockDCC(g *graph.G, ball []int, r int) []int {
	sub, orig, err := g.InducedSubgraph(ball)
	if err != nil {
		return nil
	}
	blocks, _ := sub.BiconnectedComponents()
	for _, b := range blocks {
		in := false
		for _, u := range b.Nodes {
			in = in || u == 0
		}
		if !in || BlockIsCliqueOrOddCycle(sub, b) {
			continue
		}
		if got := oracleShrinkDCC(sub, b.Nodes, 0, r); got != nil {
			out := make([]int, len(got))
			for i, u := range got {
				out[i] = orig[u]
			}
			return out
		}
	}
	return nil
}

func oracleShrinkDCC(sub *graph.G, nodes []int, center, r int) []int {
	cur := append([]int(nil), nodes...)
	if !oracleIsDCCSet(sub, cur) {
		return nil
	}
	for {
		if rad := oracleSetRadius(sub, cur); rad >= 0 && rad <= r {
			return cur
		}
		dists := oracleDistWithin(sub, cur, center)
		best, bestDist := -1, -1
		for _, cand := range cur {
			if cand == center {
				continue
			}
			if d := dists[cand]; d > bestDist {
				if next := withoutNode(cur, cand); oracleIsDCCSet(sub, next) {
					best, bestDist = cand, d
				}
			}
		}
		if best < 0 {
			return nil
		}
		cur = withoutNode(cur, best)
	}
}

func oracleDistWithin(g *graph.G, nodes []int, center int) map[int]int {
	sub, orig, err := g.InducedSubgraph(nodes)
	out := map[int]int{}
	if err != nil {
		return out
	}
	ci := -1
	for i, u := range orig {
		if u == center {
			ci = i
		}
	}
	if ci < 0 {
		return out
	}
	res := sub.BFS(ci)
	for i, u := range orig {
		out[u] = res.Dist[i]
	}
	return out
}

func oracleIsDCCSet(g *graph.G, nodes []int) bool {
	if len(nodes) < 4 {
		return false
	}
	sub, _, err := g.InducedSubgraph(nodes)
	if err != nil || sub.N() < 3 || !sub.IsConnected() {
		return false
	}
	blocks, _ := sub.BiconnectedComponents()
	spanning := false
	for _, b := range blocks {
		spanning = spanning || len(b.Nodes) == sub.N()
	}
	return spanning && !sub.IsClique() && !sub.IsOddCycle()
}

func oracleSetRadius(g *graph.G, nodes []int) int {
	sub, _, err := g.InducedSubgraph(nodes)
	if err != nil {
		return -1
	}
	return sub.Radius()
}

// oracleSelectDCCs is the original SelectDCCs sweep, with its 3-byte key
// (exact below 2^24 nodes).
func oracleSelectDCCs(g *graph.G, r int) (dccs [][]int, owner []int) {
	owner = make([]int, g.N())
	seen := map[string]int{}
	for v := range owner {
		owner[v] = -1
		d := oracleFindDCC(g, v, r)
		if d == nil {
			continue
		}
		sorted := append([]int(nil), d...)
		sort.Ints(sorted)
		b := make([]byte, 0, len(sorted)*3)
		for _, x := range sorted {
			b = append(b, byte(x), byte(x>>8), byte(x>>16))
		}
		key := string(b)
		if idx, ok := seen[key]; ok {
			owner[v] = idx
			continue
		}
		seen[key] = len(dccs)
		owner[v] = len(dccs)
		dccs = append(dccs, d)
	}
	return dccs, owner
}

type oracleCase struct {
	name string
	g    *graph.G
}

func oracleCases(short bool) []oracleCase {
	rng := rand.New(rand.NewSource(12))
	var cases []oracleCase
	sizes := []int{16, 64, 1024}
	if short {
		sizes = []int{16, 64, 256}
	}
	for _, d := range []int{3, 4, 5, 8} {
		for _, n := range sizes {
			cases = append(cases, oracleCase{fmt.Sprintf("rr%d-n%d", d, n), gen.MustRandomRegular(rng, n, d)})
		}
	}
	cases = append(cases,
		oracleCase{"torus-6x6", gen.Torus(6, 6)},
		oracleCase{"torus-5x7", gen.Torus(5, 7)},
		oracleCase{"torus-3x9", gen.Torus(3, 9)},
		oracleCase{"gnp-40", gen.GNPMaxDeg(rng, 40, 0.12, 6)},
		oracleCase{"gnp-120", gen.GNPMaxDeg(rng, 120, 0.03, 5)},
		oracleCase{"gnp-300", gen.GNPMaxDeg(rng, 300, 0.01, 4)},
		oracleCase{"cactus-k3", gen.CliqueCactus(3, 3)},
		oracleCase{"cactus-k4", gen.CliqueCactus(4, 2)},
		oracleCase{"gallai-tree-10", gen.GallaiTree(rng, 10, 5)},
		oracleCase{"gallai-tree-40", gen.GallaiTree(rng, 40, 4)},
		oracleCase{"clique-chain", gen.CliqueChain(4, 6)},
		oracleCase{"petersen", gen.Petersen()},
		oracleCase{"hypercube-4", gen.Hypercube(4)},
		oracleCase{"diamond", diamond()},
		oracleCase{"complete-5", gen.Complete(5)},
	)
	// At r = 3 node 48 of this sparse graph has a radius-6 ball of exactly
	// blockBallMax nodes, and only the block search finds its DCC.
	boundary := rand.New(rand.NewSource(344))
	n := 30 + boundary.Intn(60)
	cases = append(cases, oracleCase{"block-ball-48", gen.GNPMaxDeg(boundary, n, 1.5/float64(n)+boundary.Float64()*2/float64(n), 3+boundary.Intn(3))})
	// At r = 2 the cycle search from node 0 exhausts these whole components
	// without a DCC, so the ball cap must hold on a BFS that is already
	// complete: 47 nodes reach the block search, 49 and 51 do not.
	for _, k := range []int{22, 23, 24} {
		cases = append(cases, oracleCase{fmt.Sprintf("pentagon-fan-%d", k), pentagonFan(k)})
	}
	for i := range 12 {
		n := 6 + rng.Intn(20)
		cases = append(cases, oracleCase{fmt.Sprintf("dense-%d", i), gen.GNPMaxDeg(rng, n, 0.15+0.4*rng.Float64(), n)})
	}
	return cases
}

// pentagonFan joins node 0 to hubs 1 and 2 and closes k chordless,
// ear-free 5-cycles 0-1-x-y-2 through them (x = 3+2i, y = 4+2i): 2k+3
// nodes, one block, radius 2 from node 0.
func pentagonFan(k int) *graph.G {
	g := graph.New(2*k + 3)
	g.MustEdge(0, 1)
	g.MustEdge(0, 2)
	for i := range k {
		x, y := 3+2*i, 4+2*i
		g.MustEdge(1, x)
		g.MustEdge(x, y)
		g.MustEdge(y, 2)
	}
	return g
}

// TestFinderMatchesOracle: Finder.Find returns exactly the original
// search's result for every node, on every graph and radius.
func TestFinderMatchesOracle(t *testing.T) {
	for _, tc := range oracleCases(testing.Short()) {
		t.Run(tc.name, func(t *testing.T) {
			f := NewFinder(tc.g)
			for _, r := range []int{0, 1, 2, 3, 4, 6} {
				for v := 0; v < tc.g.N(); v++ {
					want := oracleFindDCC(tc.g, v, r)
					if got := f.Find(v, r); !reflect.DeepEqual(got, want) {
						t.Fatalf("r=%d v=%d: Find=%v, oracle=%v", r, v, got, want)
					}
				}
			}
		})
	}
}

// TestSelectDCCsMatchesOracle: the Finder sweep selects the same DCCs in
// the same order with the same owners as the original sweep.
func TestSelectDCCsMatchesOracle(t *testing.T) {
	for _, tc := range oracleCases(testing.Short()) {
		for _, r := range []int{1, 2, 3, 4, 6} {
			dccs, owner, _ := SelectDCCs(tc.g, r)
			wantDCCs, wantOwner := oracleSelectDCCs(tc.g, r)
			if !reflect.DeepEqual(dccs, wantDCCs) || !reflect.DeepEqual(owner, wantOwner) {
				t.Fatalf("%s r=%d: SelectDCCs diverges from the oracle:\ndccs  %v\nwant  %v\nowner %v\nwant  %v",
					tc.name, r, dccs, wantDCCs, owner, wantOwner)
			}
		}
	}
}

// TestSetPredicatesMatchOracle: the compact-adjacency SetRadius and
// IsDCCSet agree with the InducedSubgraph-based originals on random node
// sets, including disconnected sets and sets listing a node twice.
func TestSetPredicatesMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for range 3000 {
		n := 4 + rng.Intn(10)
		g := gen.GNPMaxDeg(rng, n, 0.2+0.6*rng.Float64(), n)
		nodes := rng.Perm(n)[:rng.Intn(n+1)]
		if len(nodes) > 0 && rng.Intn(10) == 0 {
			nodes = append(nodes, nodes[rng.Intn(len(nodes))])
		}
		if got, want := SetRadius(g, nodes), oracleSetRadius(g, nodes); got != want {
			t.Fatalf("SetRadius(%v) on %v = %d, oracle %d", nodes, g.Edges(), got, want)
		}
		if got, want := IsDCCSet(g, nodes), oracleIsDCCSet(g, nodes); got != want {
			t.Fatalf("IsDCCSet(%v) on %v = %v, oracle %v", nodes, g.Edges(), got, want)
		}
	}
}

// TestDCCKeyDistinguishesHighBits: node sets differing only at bit 24
// (and above) get distinct keys; a 3-byte packing collided on them.
func TestDCCKeyDistinguishesHighBits(t *testing.T) {
	a := []int{1, 2, 3, 4}
	b := []int{1, 2, 3, 4 | 1<<24}
	if dccKey(a) == dccKey(b) {
		t.Fatalf("dccKey(%v) == dccKey(%v)", a, b)
	}
	if dccKey([]int{5, 1 << 40}) == dccKey([]int{5, 1 << 41}) {
		t.Fatal("dccKey collides above bit 32")
	}
	if dccKey([]int{3, 1, 2}) != dccKey([]int{1, 2, 3}) {
		t.Fatal("dccKey depends on node order")
	}
}

// TestStampedEpochWrap: when the epoch counter wraps, stale stamps are
// cleared instead of aliasing the new epoch.
func TestStampedEpochWrap(t *testing.T) {
	s := newStamped(3)
	s.reset()
	s.put(1, 7)
	s.epoch = math.MaxUint32
	s.stamp[2] = math.MaxUint32
	s.reset()
	for u := range 3 {
		if _, ok := s.get(u); ok {
			t.Fatalf("entry %d live after reset across the wrap", u)
		}
	}
	s.put(0, 5)
	if x, ok := s.get(0); !ok || x != 5 {
		t.Fatalf("get(0) = %d, %v after put", x, ok)
	}
}

// TestEvenClosersAreDCCs pins the lemma the search rests on: every even
// cycle of length >= 4 that a closer makes through the center induces a
// DCC, so the search returns it without a set test.
func TestEvenClosersAreDCCs(t *testing.T) {
	checked := 0
	for _, tc := range oracleCases(testing.Short()) {
		for _, r := range []int{2, 3, 4, 6} {
			for v := 0; v < tc.g.N(); v++ {
				for _, cyc := range oracleShortCyclesThrough(tc.g, v, r) {
					if len(cyc) < 4 || len(cyc)%2 == 1 {
						continue
					}
					if !IsDCCSet(tc.g, cyc) {
						t.Fatalf("%s r=%d v=%d: even cycle %v is not a DCC", tc.name, r, v, cyc)
					}
					checked++
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no even cycle checked")
	}
}

// TestFinderEpochWrap: when the Finder's epoch wraps, its BFS records are
// cleared instead of aliasing the new epoch, so every search still
// equals a fresh Finder's. The stale stamps alternate between 0 and 1,
// the two epochs a mishandled wrap could reuse.
func TestFinderEpochWrap(t *testing.T) {
	for _, tc := range []oracleCase{
		{"rr4-n64", gen.MustRandomRegular(rand.New(rand.NewSource(5)), 64, 4)},
		{"pentagon-fan-4", pentagonFan(4)},
		{"ladder-2x6", gen.Grid(2, 6)},
	} {
		f := NewFinder(tc.g)
		for _, r := range []int{1, 2, 3} {
			for v := 0; v < tc.g.N(); v++ {
				f.Find((v+1)%tc.g.N(), r) // leave records of another search behind
				for u := range f.mark {
					f.mark[u].stamp = uint32(u % 2)
				}
				f.epoch = math.MaxUint32
				want := NewFinder(tc.g).Find(v, r)
				if got := f.Find(v, r); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s r=%d v=%d: Find across the wrap = %v, fresh Finder %v", tc.name, r, v, got, want)
				}
			}
		}
	}
}

// fuzzGraph decodes a graph of at most 20 nodes: n-1 in the first byte,
// then one edge per byte pair; self-loops and repeated edges are skipped.
func fuzzGraph(data []byte) *graph.G {
	if len(data) == 0 {
		return graph.New(1)
	}
	n := 1 + int(data[0])%20
	g := graph.New(n)
	for i := 1; i+1 < len(data); i += 2 {
		u, v := int(data[i])%n, int(data[i+1])%n
		if u != v && !g.HasEdge(u, v) {
			g.MustEdge(u, v)
		}
	}
	return g
}

// fuzzBytes is fuzzGraph's inverse, for the seed corpus: n nodes and the
// edges in insertion order.
func fuzzBytes(n int, edges [][2]int) []byte {
	b := []byte{byte(n - 1)}
	for _, e := range edges {
		b = append(b, byte(e[0]), byte(e[1]))
	}
	return b
}

// FuzzFinderMatchesOracle: on random small graphs, Finder.Find returns
// exactly the original search's result at every node for r in {1, 2, 3}.
func FuzzFinderMatchesOracle(f *testing.F) {
	for _, g := range []*graph.G{diamond(), gen.Complete(4), gen.Complete(5), pentagonFan(3), gen.Grid(2, 4)} {
		f.Add(fuzzBytes(g.N(), g.Edges()))
	}
	// K_{2,3} with hubs 9 and 0, in an insertion order that makes node 9's
	// first 4-cycle closer a tie: its smaller end 0 lies on level 2 and
	// closes with 6 and 7, which the BFS meets in the order opposite to
	// node 0's adjacency.
	f.Add(fuzzBytes(10, [][2]int{{9, 5}, {9, 6}, {9, 7}, {0, 5}, {0, 7}, {0, 6}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		g := fuzzGraph(data)
		fd := NewFinder(g)
		for _, r := range []int{1, 2, 3} {
			for v := 0; v < g.N(); v++ {
				want := oracleFindDCC(g, v, r)
				if got := fd.Find(v, r); !reflect.DeepEqual(got, want) {
					t.Fatalf("r=%d v=%d on %v: Find=%v, oracle=%v", r, v, g.Edges(), got, want)
				}
			}
		}
	})
}

var sinkDCCs [][]int

// BenchmarkSelectDCCs measures the central DCC sweep of the randomized
// algorithm on a random 4-regular graph with n = 1024 at r = 6, the
// radius the randomized pipeline picks for Δ = 4.
func BenchmarkSelectDCCs(b *testing.B) {
	g := gen.MustRandomRegular(rand.New(rand.NewSource(1)), 1024, 4)
	b.ReportAllocs()
	for b.Loop() {
		sinkDCCs, _, _ = SelectDCCs(g, 6)
	}
}

// BenchmarkSelectDCCsN20000 is BenchmarkSelectDCCs at n = 20000, where
// the adjacency and the search's records outgrow the caches that hold
// them at n = 1024 and a search reaches deeper levels.
func BenchmarkSelectDCCsN20000(b *testing.B) {
	g := gen.MustRandomRegular(rand.New(rand.NewSource(1)), 20000, 4)
	b.ReportAllocs()
	for b.Loop() {
		sinkDCCs, _, _ = SelectDCCs(g, 6)
	}
}
