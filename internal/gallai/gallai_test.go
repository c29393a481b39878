package gallai

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"deltacolor/graph"
	"deltacolor/graph/gen"
)

func diamond() *graph.G {
	// K4 minus an edge: the smallest DCC besides C4.
	g := graph.New(4)
	g.MustEdge(0, 1)
	g.MustEdge(1, 2)
	g.MustEdge(2, 3)
	g.MustEdge(3, 0)
	g.MustEdge(0, 2)
	return g
}

func TestIsGallaiTreeBasics(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.G
		want bool
	}{
		{"K4", gen.Complete(4), true},
		{"C5", gen.Cycle(5), true},
		{"C6", gen.Cycle(6), false},
		{"C4", gen.Cycle(4), false},
		{"P5", gen.Path(5), true},
		{"diamond", diamond(), false},
		{"tree", gen.CompleteTree(3, 2), true},
		{"clique-chain", gen.CliqueChain(4, 3), true},
		{"K23", gen.CompleteBipartite(2, 3), false},
		{"hypercube", gen.Hypercube(3), false},
	}
	for _, c := range cases {
		if got := IsGallaiTree(c.g); got != c.want {
			t.Errorf("%s: IsGallaiTree=%v want %v", c.name, got, c.want)
		}
	}
}

func TestGallaiTreeGeneratorAgrees(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := gen.GallaiTree(rng, 1+rng.Intn(8), 5)
		if !IsGallaiTree(g) {
			t.Fatalf("seed=%d: generated Gallai tree not recognized", seed)
		}
	}
}

func TestIsDegreeChoosable(t *testing.T) {
	if IsDegreeChoosable(gen.Cycle(5)) {
		t.Fatal("odd cycle is not degree-choosable")
	}
	if !IsDegreeChoosable(gen.Cycle(6)) {
		t.Fatal("even cycle is degree-choosable")
	}
	if IsDegreeChoosable(gen.Complete(4)) {
		t.Fatal("clique is not degree-choosable")
	}
	if !IsDegreeChoosable(diamond()) {
		t.Fatal("diamond is degree-choosable")
	}
	// Disconnected: one choosable + one Gallai component => not choosable.
	g := graph.New(10)
	for i := 0; i < 6; i++ {
		g.MustEdge(i, (i+1)%6) // C6
	}
	g.MustEdge(6, 7)
	g.MustEdge(7, 8)
	g.MustEdge(8, 6) // triangle
	if IsDegreeChoosable(g) {
		t.Fatal("graph with a Gallai component is not degree-choosable")
	}
	if IsDegreeChoosable(graph.New(0)) {
		t.Fatal("empty graph")
	}
}

func TestIsDCCSet(t *testing.T) {
	d := diamond()
	if !IsDCCSet(d, []int{0, 1, 2, 3}) {
		t.Fatal("diamond is a DCC")
	}
	c6 := gen.Cycle(6)
	if !IsDCCSet(c6, []int{0, 1, 2, 3, 4, 5}) {
		t.Fatal("C6 is a DCC")
	}
	c5 := gen.Cycle(5)
	if IsDCCSet(c5, []int{0, 1, 2, 3, 4}) {
		t.Fatal("C5 is not a DCC")
	}
	k4 := gen.Complete(4)
	if IsDCCSet(k4, []int{0, 1, 2, 3}) {
		t.Fatal("K4 is not a DCC")
	}
	p4 := gen.Path(4)
	if IsDCCSet(p4, []int{0, 1, 2, 3}) {
		t.Fatal("paths are not 2-connected")
	}
	if IsDCCSet(c6, []int{0, 1, 2}) {
		t.Fatal("too small / not 2-connected")
	}
}

func TestFindDCCOnEvenCycle(t *testing.T) {
	g := gen.Cycle(8)
	d := FindDCC(g, 0, 4)
	if d == nil {
		t.Fatal("C8 contains itself as a DCC of radius 4")
	}
	if !IsDCCSet(g, d) {
		t.Fatalf("returned set %v is not a DCC", d)
	}
	if r := SetRadius(g, d); r > 4 {
		t.Fatalf("radius %d > 4", r)
	}
}

func TestFindDCCRadiusTooSmall(t *testing.T) {
	g := gen.Cycle(20)
	if d := FindDCC(g, 0, 3); d != nil {
		t.Fatalf("C20 has no DCC of radius 3, got %v", d)
	}
}

func TestFindDCCOnOddCycleNone(t *testing.T) {
	g := gen.Cycle(9)
	if d := FindDCC(g, 0, 5); d != nil {
		t.Fatalf("C9 (odd, no other structure) has no DCC, got %v", d)
	}
}

func TestFindDCCDiamond(t *testing.T) {
	g := diamond()
	d := FindDCC(g, 0, 2)
	if d == nil {
		t.Fatal("diamond not found")
	}
	if !IsDCCSet(g, d) {
		t.Fatal("not a DCC")
	}
}

func TestFindDCCOnGallaiTreeNone(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := gen.GallaiTree(rng, 5, 4)
		for v := 0; v < g.N(); v += 3 {
			if d := FindDCC(g, v, 3); d != nil {
				t.Fatalf("seed=%d: DCC %v found in a Gallai tree", seed, d)
			}
		}
	}
}

// Soundness property: whatever FindDCC returns is a DCC of radius <= r.
func TestFindDCCSoundnessProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 12 + rng.Intn(30)
		g := graph.New(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.12 {
					g.MustEdge(u, v)
				}
			}
		}
		r := 2 + rng.Intn(3)
		v := rng.Intn(n)
		d := FindDCC(g, v, r)
		if d == nil {
			return true
		}
		if !IsDCCSet(g, d) {
			return false
		}
		if rad := SetRadius(g, d); rad < 0 || rad > r {
			return false
		}
		// Must contain v.
		found := false
		for _, u := range d {
			if u == v {
				found = true
			}
		}
		return found
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestSelectDCCs(t *testing.T) {
	g := gen.Cycle(8)
	dccs, owner, rounds := SelectDCCs(g, 4)
	if rounds != 8 {
		t.Fatalf("rounds=%d", rounds)
	}
	if len(dccs) == 0 {
		t.Fatal("C8 nodes all sit in a DCC")
	}
	for v := 0; v < 8; v++ {
		if owner[v] < 0 {
			t.Fatalf("node %d found no DCC", v)
		}
	}
	// Dedup: identical node sets must collapse.
	for i, d := range dccs {
		if !IsDCCSet(g, d) {
			t.Fatalf("dcc %d invalid", i)
		}
	}
}

func TestBruteListColorSolvable(t *testing.T) {
	g := diamond()
	lists := [][]int{{0, 1, 2}, {0, 1}, {0, 1, 2}, {0, 1}}
	sol, err := BruteListColor(g, []int{0, 1, 2, 3}, lists)
	if err != nil {
		t.Fatal(err)
	}
	for v, c := range sol {
		ok := false
		for _, x := range lists[v] {
			if x == c {
				ok = true
			}
		}
		if !ok {
			t.Fatalf("node %d color %d not in list", v, c)
		}
		for _, u := range g.Neighbors(v) {
			if sol[u] == c {
				t.Fatalf("conflict on edge (%d,%d)", v, u)
			}
		}
	}
}

func TestBruteListColorInfeasible(t *testing.T) {
	g := gen.Complete(3)
	lists := [][]int{{0}, {0}, {0, 1}}
	if _, err := BruteListColor(g, []int{0, 1, 2}, lists); err == nil {
		t.Fatal("want infeasibility error")
	}
}

func TestBruteListColorMissingList(t *testing.T) {
	g := gen.Complete(3)
	lists := [][]int{{0}, {1}}
	if _, err := BruteListColor(g, []int{0, 1, 2}, lists); err == nil {
		t.Fatal("want missing-list error")
	}
}

// Theorem 8 as a property: DCCs always admit degree-list colorings, odd
// cycles and cliques do not (for uniform minimal lists).
func TestTheorem8Property(t *testing.T) {
	// C6 with exactly-degree lists is colorable.
	c6 := gen.Cycle(6)
	lists := make([][]int, 6)
	for v := 0; v < 6; v++ {
		lists[v] = []int{0, 1} // deg = 2
	}
	if _, err := BruteListColor(c6, []int{0, 1, 2, 3, 4, 5}, lists); err != nil {
		t.Fatalf("C6 degree-list should be colorable: %v", err)
	}
	// C5 with identical 2-lists is not.
	c5 := gen.Cycle(5)
	lists5 := make([][]int, 5)
	for v := 0; v < 5; v++ {
		lists5[v] = []int{0, 1}
	}
	if _, err := BruteListColor(c5, []int{0, 1, 2, 3, 4}, lists5); err == nil {
		t.Fatal("odd cycle with uniform 2-lists must be infeasible")
	}
	// K4 with uniform 3-lists is not colorable.
	k4 := gen.Complete(4)
	lists4 := make([][]int, 4)
	for v := 0; v < 4; v++ {
		lists4[v] = []int{0, 1, 2}
	}
	if _, err := BruteListColor(k4, []int{0, 1, 2, 3}, lists4); err == nil {
		t.Fatal("K4 with uniform 3-lists must be infeasible")
	}
}

// Random DCCs from random graphs are degree-list-colorable for arbitrary
// list assignments of degree size (spot check with random lists).
func TestDCCAlwaysDegreeColorableProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(20)
		g := graph.New(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.2 {
					g.MustEdge(u, v)
				}
			}
		}
		d := FindDCC(g, rng.Intn(n), 3)
		if d == nil {
			return true
		}
		sub, orig, err := g.InducedSubgraph(d)
		if err != nil {
			return false
		}
		// Random lists of size exactly deg within the component.
		lists := make([][]int, len(orig))
		for i := range orig {
			deg := sub.Deg(i)
			off := rng.Intn(3)
			l := make([]int, deg)
			for c := 0; c < deg; c++ {
				l[c] = off + c
			}
			lists[i] = l
		}
		_, err = BruteListColor(g, d, lists)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDegreeLists(t *testing.T) {
	g := gen.Cycle(6)
	partial := []int{-1, -1, -1, 2, -1, 1}
	lists := DegreeLists(g, []int{0, 1, 2}, partial, 3)
	// Node 0: outside neighbor 5 has color 1 -> list {0, 2}.
	if len(lists[0]) != 2 || lists[0][0] != 0 || lists[0][1] != 2 {
		t.Fatalf("lists[0]=%v", lists[0])
	}
	// Node 2: outside neighbor 3 has color 2 -> list {0, 1}.
	if len(lists[2]) != 2 || lists[2][1] != 1 {
		t.Fatalf("lists[2]=%v", lists[2])
	}
	// Node 1: no colored outside neighbors -> full {0,1,2}.
	if len(lists[1]) != 3 {
		t.Fatalf("lists[1]=%v", lists[1])
	}
	// A member's own color constrains no list: coloring node 1 changes
	// nothing.
	partial[1] = 0
	if again := DegreeLists(g, []int{0, 1, 2}, partial, 3); !reflect.DeepEqual(again, lists) {
		t.Fatalf("with member 1 colored: lists %v, want %v", again, lists)
	}
}

// TestTheorem8Exhaustive verifies Theorem 8 (a graph is degree-choosable
// iff it is not a Gallai tree) on EVERY connected graph with up to 6
// nodes — no generator bias, the full statement.
func TestTheorem8Exhaustive(t *testing.T) {
	for n := 2; n <= 6; n++ {
		pairs := n * (n - 1) / 2
		checked := 0
		for mask := uint64(0); mask < 1<<pairs; mask++ {
			g := graph.New(n)
			bit := 0
			for u := 0; u < n; u++ {
				for v := u + 1; v < n; v++ {
					if mask&(1<<bit) != 0 {
						g.MustEdge(u, v)
					}
					bit++
				}
			}
			if !g.IsConnected() {
				continue
			}
			checked++
			gallaiTree := IsGallaiTree(g)
			choosable := IsDegreeChoosable(g)
			if gallaiTree == choosable {
				t.Fatalf("n=%d mask=%d: IsGallaiTree=%v and IsDegreeChoosable=%v must differ (Theorem 8)", n, mask, gallaiTree, choosable)
			}
		}
		if checked == 0 {
			t.Fatalf("n=%d: no connected graphs enumerated", n)
		}
	}
}
