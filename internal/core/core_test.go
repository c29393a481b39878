package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"deltacolor/graph"
	"deltacolor/graph/gen"
	"deltacolor/internal/brooks"
	"deltacolor/internal/gallai"
	"deltacolor/local"
	"deltacolor/verify"
)

func TestCheckNicePreconditions(t *testing.T) {
	tests := []struct {
		name    string
		g       *graph.G
		wantErr error
	}{
		{"complete K5", gen.Complete(5), ErrComplete},
		{"complete K4", gen.Complete(4), ErrComplete},
		{"odd cycle C5", gen.Cycle(5), ErrDegreeTooSmall},
		{"even cycle C6", gen.Cycle(6), ErrDegreeTooSmall},
		{"path P8", gen.Path(8), ErrDegreeTooSmall},
		{"torus 4x4", gen.Torus(4, 4), nil},
		{"hypercube d=3", gen.Hypercube(3), nil},
		{"grid 5x5", gen.Grid(5, 5), nil},
		{"complete bipartite K33", gen.CompleteBipartite(3, 3), nil},
		{"clique chain", gen.CliqueChain(4, 4), nil},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := CheckNice(tc.g, 3)
			if tc.wantErr == nil {
				if err != nil {
					t.Fatalf("CheckNice: unexpected error %v", err)
				}
				return
			}
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("CheckNice: got %v, want %v", err, tc.wantErr)
			}
		})
	}
}

func TestCheckNiceDisconnected(t *testing.T) {
	// Two nice components: accepted.
	g := graph.New(32)
	t1 := gen.Torus(4, 4)
	for _, e := range t1.Edges() {
		g.MustEdge(e[0], e[1])
	}
	for _, e := range t1.Edges() {
		g.MustEdge(e[0]+16, e[1]+16)
	}
	if _, err := CheckNice(g, 3); err != nil {
		t.Fatalf("two nice components rejected: %v", err)
	}

	// A nice component plus a clique component: rejected with ErrComplete.
	// The clique must match Δ+1 of the whole graph to be un-Δ-colorable.
	h := graph.New(16 + 5)
	for _, e := range t1.Edges() {
		h.MustEdge(e[0], e[1])
	}
	k := gen.Complete(5)
	for _, e := range k.Edges() {
		h.MustEdge(e[0]+16, e[1]+16)
	}
	// Δ(torus) = 4, Δ(K5) = 4, so Δ+1 = 5 = |K5|: the K5 component is a
	// Δ+1-clique and cannot be Δ-colored.
	if _, err := CheckNice(h, 3); !errors.Is(err, ErrComplete) {
		t.Fatalf("torus+K5: got %v, want ErrComplete", err)
	}

	// A nice component plus a small clique, a cycle, a path or an isolated
	// node: each extra component is not nice, so the graph is rejected
	// with ErrNotNice (only a Δ+1-clique is ErrComplete).
	for name, extra := range map[string]*graph.G{
		"K3": gen.Complete(3), "C7": gen.Cycle(7), "P3": gen.Path(3), "isolated node": graph.New(1),
	} {
		t.Run("torus+"+name, func(t *testing.T) {
			if _, err := CheckNice(disjointUnion(t1, extra), 3); !errors.Is(err, ErrNotNice) {
				t.Errorf("got %v, want ErrNotNice", err)
			}
		})
	}
}

// TestCheckNiceMatchesComponentOracle checks CheckNice, which judges each
// component by its node count and degree range, against the definition
// applied to each induced component: a (Δ+1)-clique is ErrComplete, any
// other clique, path or cycle is ErrNotNice, and the first offending
// component in ConnectedComponents order decides the error. The parts
// are relabeled at random, so components interleave in ID order.
func TestCheckNiceMatchesComponentOracle(t *testing.T) {
	oracle := func(g *graph.G) error {
		delta := g.MaxDegree()
		if delta < 3 {
			return ErrDegreeTooSmall
		}
		comp, count := g.ConnectedComponents()
		byComp := make([][]int, count)
		for v, c := range comp {
			byComp[c] = append(byComp[c], v)
		}
		for _, nodes := range byComp {
			sub, _, err := g.InducedSubgraph(nodes)
			if err != nil {
				t.Fatal(err)
			}
			if sub.IsClique() && sub.N() == delta+1 {
				return ErrComplete
			}
			if !sub.IsNice() {
				return ErrNotNice
			}
		}
		return nil
	}
	rng := rand.New(rand.NewSource(21))
	pieces := []func() *graph.G{
		func() *graph.G { return gen.Complete(1 + rng.Intn(6)) },
		func() *graph.G { return gen.Cycle(3 + rng.Intn(6)) },
		func() *graph.G { return gen.Path(1 + rng.Intn(6)) },
		func() *graph.G { return gen.Torus(3+rng.Intn(2), 3+rng.Intn(2)) },
		func() *graph.G { return gen.CompleteBipartite(1+rng.Intn(3), 1+rng.Intn(3)) },
		func() *graph.G { return gen.RandomTree(rng, 1+rng.Intn(10)) },
		func() *graph.G { return gen.GNPMaxDeg(rng, 4+rng.Intn(8), 0.4, 3+rng.Intn(3)) },
	}
	seen := map[error]int{}
	for trial := 0; trial < 300; trial++ {
		parts := make([]*graph.G, 1+rng.Intn(4))
		for i := range parts {
			parts[i] = pieces[rng.Intn(len(pieces))]()
		}
		g := permuted(rng, disjointUnion(parts...))
		want := oracle(g)
		seen[want]++
		if _, err := CheckNice(g, 3); !errors.Is(err, want) && !(err == nil && want == nil) {
			t.Fatalf("trial %d (n=%d, m=%d): CheckNice = %v, oracle = %v", trial, g.N(), g.M(), err, want)
		}
	}
	for _, want := range []error{nil, ErrComplete, ErrNotNice, ErrDegreeTooSmall} {
		if seen[want] == 0 {
			t.Errorf("no trial exercised outcome %v", want)
		}
	}
}

func TestLayeringDistances(t *testing.T) {
	// On a path 0-1-2-3-4 embedded in a star-ish graph the layering must
	// equal BFS distance from the base.
	g := gen.Grid(4, 4)
	base := []int{0}
	layer := Layering(g, base, nil, -1)
	if layer[0] != 0 {
		t.Fatalf("base node layer = %d, want 0", layer[0])
	}
	// Node 15 (opposite corner) is at Manhattan distance 6 in a 4x4 grid.
	if layer[15] != 6 {
		t.Fatalf("corner layer = %d, want 6", layer[15])
	}
	// Every non-base node must have a neighbor exactly one layer below.
	for v := 0; v < g.N(); v++ {
		if layer[v] <= 0 {
			continue
		}
		found := false
		for _, u := range g.Neighbors(v) {
			if layer[u] == layer[v]-1 {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("node %d at layer %d has no neighbor at layer %d", v, layer[v], layer[v]-1)
		}
	}
}

func TestLayeringRestricted(t *testing.T) {
	g := gen.Grid(3, 3)
	restrict := make([]bool, g.N())
	// Restrict to the top row {0,1,2}.
	restrict[0], restrict[1], restrict[2] = true, true, true
	layer := Layering(g, []int{0}, restrict, -1)
	if layer[0] != 0 || layer[1] != 1 || layer[2] != 2 {
		t.Fatalf("restricted layering on row: got %v %v %v, want 0 1 2", layer[0], layer[1], layer[2])
	}
	for v := 3; v < g.N(); v++ {
		if layer[v] != -1 {
			t.Fatalf("non-restricted node %d got layer %d, want -1", v, layer[v])
		}
	}
}

func TestDetRulingSetProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, k := range []int{2, 3, 5} {
		for trial := 0; trial < 3; trial++ {
			g := gen.MustRandomRegular(rng, 128, 4)
			checkRulingSet(t, g, nil, k, DetRulingSetCompute(g, nil, k))
		}
	}
}

// TestDetRulingSetActiveSubset checks the (k, Beta) contract on G[active]
// with distances measured in g: members are active and pairwise >= k
// apart, and every active node is within Beta of the set.
func TestDetRulingSetActiveSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, fam := range []struct {
		name string
		g    *graph.G
	}{
		{"grid 6x6", gen.Grid(6, 6)},
		{"rr4 n=128", gen.MustRandomRegular(rng, 128, 4)},
		{"torus 15x15", gen.Torus(15, 15)},
		{"path+torus", disjointUnion(gen.Path(30), gen.Torus(8, 8))},
	} {
		for _, k := range []int{2, 3, 5} {
			for trial := 0; trial < 3; trial++ {
				active := make([]bool, fam.g.N())
				for v := range active {
					active[v] = rng.Intn(3) == 0
				}
				rs := DetRulingSetCompute(fam.g, active, k)
				for v, in := range rs.InSet {
					if in && !active[v] {
						t.Fatalf("%s k=%d: inactive node %d in ruling set", fam.name, k, v)
					}
				}
				checkRulingSet(t, fam.g, active, k, rs)
			}
		}
	}
}

// checkRulingSet fails t unless rs's members are pairwise >= k apart in g
// and every active node (every node when active is nil) is within
// rs.Beta of them.
func checkRulingSet(t *testing.T, g *graph.G, active []bool, k int, rs *DetRulingSet) {
	t.Helper()
	var members []int
	for v, in := range rs.InSet {
		if in {
			members = append(members, v)
		}
	}
	for _, v := range members {
		d, _ := g.MultiSourceDist([]int{v})
		for _, u := range members {
			if u != v && d[u] >= 0 && d[u] < k {
				t.Fatalf("k=%d: members %d,%d at distance %d < k", k, v, u, d[u])
			}
		}
	}
	d, _ := g.MultiSourceDist(members)
	for v := range d {
		if (active == nil || active[v]) && (d[v] < 0 || d[v] > rs.Beta) {
			t.Fatalf("k=%d: node %d at distance %d > beta=%d", k, v, d[v], rs.Beta)
		}
	}
}

// colorCheck verifies a Result against the source graph.
func colorCheck(t *testing.T, g *graph.G, res *Result) {
	t.Helper()
	if err := verify.DeltaColoring(g, res.Colors, res.Delta); err != nil {
		t.Fatalf("invalid coloring: %v", err)
	}
	if res.Rounds <= 0 {
		t.Fatalf("rounds = %d, want > 0", res.Rounds)
	}
	if res.Delta != g.MaxDegree() {
		t.Fatalf("delta = %d, want %d", res.Delta, g.MaxDegree())
	}
}

func TestRandomizedOnFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	families := []struct {
		name string
		g    *graph.G
	}{
		{"torus 8x8", gen.Torus(8, 8)},
		{"hypercube d=4", gen.Hypercube(4)},
		{"grid 8x8", gen.Grid(8, 8)},
		{"random 4-regular n=256", gen.MustRandomRegular(rng, 256, 4)},
		{"random 3-regular n=128", gen.MustRandomRegular(rng, 128, 3)},
		{"random 8-regular n=128", gen.MustRandomRegular(rng, 128, 8)},
		{"complete bipartite K44", gen.CompleteBipartite(4, 4)},
		{"clique chain 5x4", gen.CliqueChain(5, 4)},
		{"gnp capped", gen.GNPMaxDeg(rng, 200, 0.03, 6)},
	}
	for _, tc := range families {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := CheckNice(tc.g, 3); err != nil {
				t.Skipf("family not nice: %v", err)
			}
			res, err := Randomized(tc.g, RandOptions{Seed: 1})
			if err != nil {
				t.Fatalf("Randomized: %v", err)
			}
			colorCheck(t, tc.g, res)
		})
	}
}

// TestRandomizedSmallDeltaMode runs Δ = 3, where AutoParams picks the
// small-Δ parameterization r = Θ(log log n).
func TestRandomizedSmallDeltaMode(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := gen.MustRandomRegular(rng, 512, 3)
	res, err := Randomized(g, RandOptions{Seed: 3})
	if err != nil {
		t.Fatalf("Randomized small-Δ: %v", err)
	}
	colorCheck(t, g, res)
	if res.Delta != 3 {
		t.Fatalf("delta = %d, want 3", res.Delta)
	}
}

func TestRandomizedManySeeds(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	g := gen.MustRandomRegular(rng, 200, 4)
	for seed := int64(0); seed < 8; seed++ {
		res, err := Randomized(g, RandOptions{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		colorCheck(t, g, res)
	}
}

func TestRandomizedRejectsBadInputs(t *testing.T) {
	if _, err := Randomized(gen.Complete(6), RandOptions{}); !errors.Is(err, ErrComplete) {
		t.Fatalf("K6: got %v, want ErrComplete", err)
	}
	if _, err := Randomized(gen.Cycle(7), RandOptions{}); !errors.Is(err, ErrDegreeTooSmall) {
		t.Fatalf("C7: got %v, want ErrDegreeTooSmall", err)
	}
}

func TestDeterministicOnFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	families := []struct {
		name string
		g    *graph.G
	}{
		{"torus 8x8", gen.Torus(8, 8)},
		{"hypercube d=4", gen.Hypercube(4)},
		{"random 4-regular n=256", gen.MustRandomRegular(rng, 256, 4)},
		{"random 6-regular n=128", gen.MustRandomRegular(rng, 128, 6)},
		{"clique chain 6x5", gen.CliqueChain(6, 5)},
	}
	for _, tc := range families {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Deterministic(tc.g, 1)
			if err != nil {
				t.Fatalf("Deterministic: %v", err)
			}
			colorCheck(t, tc.g, res)
		})
	}
}

func TestDeterministicIsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := gen.MustRandomRegular(rng, 128, 4)
	res1, err := Deterministic(g, 7)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Deterministic(g, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Rounds != res2.Rounds {
		t.Fatalf("rounds differ across identical runs: %d vs %d", res1.Rounds, res2.Rounds)
	}
	for v := range res1.Colors {
		if res1.Colors[v] != res2.Colors[v] {
			t.Fatalf("colors differ at node %d: %d vs %d", v, res1.Colors[v], res2.Colors[v])
		}
	}
}

func TestAutoParamsDefaults(t *testing.T) {
	o := RandOptions{}.AutoParams(1<<12, 4)
	if o.Backoff != 6 {
		t.Fatalf("Δ=4 backoff = %d, want 6", o.Backoff)
	}
	if o.R <= 0 {
		t.Fatalf("R = %d, want > 0", o.R)
	}
	if o.P <= 0 || o.P > 0.05 {
		t.Fatalf("P = %v, want in (0, 0.05]", o.P)
	}

	o3 := RandOptions{}.AutoParams(1<<12, 3)
	if o3.Backoff != 12 {
		t.Fatalf("Δ=3 backoff = %d, want 12", o3.Backoff)
	}
	if o3.R%6 != 0 {
		t.Fatalf("Δ=3 R = %d, want a multiple of 6 (Lemma 14)", o3.R)
	}

	// Large Δ uses the constant radius; very large Δ a smaller constant.
	oL := RandOptions{}.AutoParams(1<<12, 8)
	if oL.R != 4 {
		t.Fatalf("Δ=8 R = %d, want 4", oL.R)
	}
	oXL := RandOptions{}.AutoParams(1<<12, 16)
	if oXL.R != 2 {
		t.Fatalf("Δ=16 R = %d, want 2", oXL.R)
	}

	// Explicit values survive.
	oX := RandOptions{R: 8, Backoff: 10, P: 0.01}.AutoParams(1<<12, 4)
	if oX.R != 8 || oX.Backoff != 10 || oX.P != 0.01 {
		t.Fatalf("explicit params overridden: %+v", oX)
	}
}

func TestRepairUncolored(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := gen.MustRandomRegular(rng, 64, 4)
	delta := 4
	// Start from a valid coloring and erase a scattered subset.
	res, err := Randomized(g, RandOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	f, err := Start(g, "repair")
	if err != nil {
		t.Fatal(err)
	}
	colors, acct := f.Colors, f.Acct
	copy(colors, res.Colors)
	erased := 0
	for v := 0; v < g.N(); v += 7 {
		colors[v] = -1
		erased++
	}
	repairs, err := f.SafetyNet(17)
	if err != nil {
		t.Fatalf("SafetyNet: %v", err)
	}
	if repairs != erased {
		t.Fatalf("safety net found %d holes, want %d", repairs, erased)
	}
	if err := verify.DeltaColoring(g, colors, delta); err != nil {
		t.Fatalf("repair left invalid coloring: %v", err)
	}
	if acct.Total() <= 0 {
		t.Fatalf("repair charged %d rounds, want > 0", acct.Total())
	}
	// Finish folds the repair's batches into the result: one
	// "repair-batch[i]" phase per batch, and their rounds (scheduling
	// included) are everything the accountant was charged.
	out, err := f.Finish(repairs)
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	batches := 0
	for _, p := range out.Phases {
		if strings.HasPrefix(p.Name, "repair-batch[") {
			batches++
		}
	}
	total := 0
	for _, r := range out.RepairBatchRounds {
		total += r
	}
	if out.Rounds != acct.Total() || out.Repairs != erased || out.RepairBatches == 0 || out.RepairBatches != batches || total != acct.Total() {
		t.Fatalf("result rounds %d repairs %d batches %d %v, want %d %d %d phases summing to the total",
			out.Rounds, out.Repairs, out.RepairBatches, out.RepairBatchRounds, acct.Total(), erased, batches)
	}
	// Batching must not devolve into one batch per hole on a scattered
	// erasure: at least one batch has to carry multiple repairs.
	if out.RepairBatches >= erased {
		t.Fatalf("%d batches for %d repairs: no batching happened", out.RepairBatches, erased)
	}
}

func TestLayerColorerReverseOrder(t *testing.T) {
	g := gen.Torus(6, 6)
	delta := g.MaxDegree()
	acct := &local.Accountant{}
	lc := NewLayerColorer(g, delta, ListColorRandomized, 3, acct)

	// Layer by distance from node 0; layer 0 = {0}.
	layer := Layering(g, []int{0}, nil, -1)
	s := 0
	for _, l := range layer {
		if l > s {
			s = l
		}
	}
	colors := make([]int, g.N())
	for v := range colors {
		colors[v] = -1
	}
	lc.ColorLayersReverse(colors, layer, s, "t")
	// All nodes except layer 0 must be colored, properly: every layer is a
	// deg+1 instance.
	for v := 0; v < g.N(); v++ {
		if layer[v] >= 1 && colors[v] < 0 {
			t.Fatalf("node %d (layer %d) left uncolored", v, layer[v])
		}
	}
	if err := verify.PartialColoring(g, colors, delta); err != nil {
		t.Fatalf("partial coloring invalid: %v", err)
	}
}

// TestLayerColorerDefersFailedLayer pins the failure branch. The 6x6
// torus is layered by distance from node 0, and the four neighbors of
// node 8 = (1, 2), two in layer 2 and two in layer 4, are colored 0-3
// beforehand, so node 8's list is empty and layer 3 fails
// CheckDegPlusOne. Layer 3 must stay uncolored, every other layer from
// 1 up must be colored, and RepairHoles must then complete the coloring.
func TestLayerColorerDefersFailedLayer(t *testing.T) {
	for _, mode := range []ListColorMode{ListColorRandomized, ListColorDeterministic} {
		g := gen.Torus(6, 6)
		delta := g.MaxDegree()
		layer := Layering(g, []int{0}, nil, -1)
		colors := slices.Repeat([]int{-1}, g.N())
		for c, u := range []int{2, 7, 14, 9} {
			colors[u] = c
		}
		if layer[8] != 3 {
			t.Fatalf("node 8 in layer %d, want 3", layer[8])
		}

		lc := NewLayerColorer(g, delta, mode, 3, &local.Accountant{})
		lc.ColorLayersReverse(colors, layer, slices.Max(layer), "t")
		for v, l := range layer {
			if (l == 3 || l == 0) != (colors[v] < 0) {
				t.Fatalf("mode %v: node %d in layer %d has color %d; want exactly layers 0 and 3 uncolored", mode, v, l, colors[v])
			}
		}
		if err := verify.PartialColoring(g, colors, delta); err != nil {
			t.Fatalf("mode %v: partial coloring invalid: %v", mode, err)
		}
		if _, err := brooks.RepairHoles(g, colors, brooks.Holes(colors), delta, 5); err != nil {
			t.Fatalf("mode %v: RepairHoles: %v", mode, err)
		}
		if err := verify.DeltaColoring(g, colors, delta); err != nil {
			t.Fatalf("mode %v: repaired coloring invalid: %v", mode, err)
		}
	}
}

func TestResultPhasesSumToTotal(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := gen.MustRandomRegular(rng, 128, 4)
	res, err := Randomized(g, RandOptions{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, p := range res.Phases {
		if p.Rounds < 0 {
			t.Fatalf("phase %q has negative rounds %d", p.Name, p.Rounds)
		}
		sum += p.Rounds
	}
	if sum != res.Rounds {
		t.Fatalf("phase sum %d != total %d", sum, res.Rounds)
	}
}

// diamondWithTail builds the anchor-overlap scenario of the PR 4 bugfix: a
// diamond (K4 minus an edge, degree-choosable) whose nodes 1 and 3 are
// also free nodes — 3 by low degree, 1 by an uncolored neighbor outside
// the component — so the free-node singletons overlap the DCC group.
func diamondWithTail() (g *graph.G, inL []bool, colors []int) {
	g = graph.New(5)
	g.MustEdge(0, 1)
	g.MustEdge(1, 2)
	g.MustEdge(2, 3)
	g.MustEdge(3, 0)
	g.MustEdge(0, 2)
	g.MustEdge(1, 4) // tail: node 4 outside L, uncolored
	inL = []bool{true, true, true, true, false}
	colors = []int{-1, -1, -1, -1, -1}
	return g, inL, colors
}

func TestDiscoverAnchorsOverlapExcluded(t *testing.T) {
	g, inL, colors := diamondWithTail()
	delta := 3
	groups, _, err := discoverAnchors(g, inL, colors, maskedComponents(g, inL), delta)
	if err != nil {
		t.Fatal(err)
	}
	var dccGroups, freeGroups int
	owned := map[int]bool{}
	for _, grp := range groups {
		if grp.free {
			freeGroups++
		} else {
			dccGroups++
		}
		for _, v := range grp.nodes {
			if owned[v] {
				t.Fatalf("node %d appears in two anchor groups: %+v", v, groups)
			}
			owned[v] = true
		}
	}
	if dccGroups == 0 {
		t.Fatalf("the diamond DCC was not discovered: %+v", groups)
	}
	// Nodes 1 (uncolored outside neighbor) and 3 (degree 2 < Δ) qualify as
	// free nodes but sit inside the DCC group; the dedupe must drop their
	// singletons instead of emitting overlapping anchors.
	if freeGroups != 0 {
		t.Fatalf("free singletons overlap the DCC group: %+v", groups)
	}
}

// TestDiscoverAnchorsDCCGroupsMayOverlap pins the other half of
// discoverAnchors' contract: DCC groups may overlap one another. On the
// 2x4 ladder every DCC group shares a rung with the next, so only the
// quotient network's shared-member adjacency keeps the chosen anchors
// disjoint.
func TestDiscoverAnchorsDCCGroupsMayOverlap(t *testing.T) {
	g := gen.Grid(2, 4)
	inL := make([]bool, g.N())
	colors := make([]int, g.N())
	byComp := [][]int{nil}
	for v := range inL {
		inL[v], colors[v] = true, -1
		byComp[0] = append(byComp[0], v)
	}
	groups, _, err := discoverAnchors(g, inL, colors, byComp, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []anchorGroup{{nodes: []int{0, 1, 4, 5}}, {nodes: []int{1, 2, 5, 6}}, {nodes: []int{2, 3, 6, 7}}}
	if !reflect.DeepEqual(groups, want) {
		t.Fatalf("groups = %+v, want %+v", groups, want)
	}
}

// TestDiscoverAnchorsOneDCCPerMinNode pins the minimum-node thinning of
// discoverAnchors: on the 4x4 torus as one L-component (Δ = 4, rc = 10)
// SelectDCCs returns 12 distinct DCCs, and discoverAnchors keeps 9 DCC
// groups, each with a distinct minimum node, and no free singleton.
func TestDiscoverAnchorsOneDCCPerMinNode(t *testing.T) {
	g := gen.Torus(4, 4)
	inL := make([]bool, g.N())
	colors := make([]int, g.N())
	for v := range inL {
		inL[v], colors[v] = true, -1
	}
	if dccs, _, _ := gallai.SelectDCCs(g, 10); len(dccs) != 12 {
		t.Fatalf("SelectDCCs found %d DCCs, want 12", len(dccs))
	}
	groups, maxRC, err := discoverAnchors(g, inL, colors, maskedComponents(g, inL), 4)
	if err != nil {
		t.Fatal(err)
	}
	if maxRC != 10 || len(groups) != 9 {
		t.Fatalf("rc = %d and %d groups, want 10 and 9: %+v", maxRC, len(groups), groups)
	}
	mins := map[int]bool{}
	for _, grp := range groups {
		if grp.free || mins[slices.Min(grp.nodes)] {
			t.Fatalf("group %+v is free or repeats a minimum node: %+v", grp, groups)
		}
		mins[slices.Min(grp.nodes)] = true
	}
}

func TestSmallComponentsOverlappingAnchors(t *testing.T) {
	// End to end: colorSmallComponents on components whose anchors
	// overlap must color all of L properly, leaving nothing to the safety
	// net. In the
	// diamond with a tail, free singletons sit inside the DCC group (the
	// DCC anchor covers the whole component); on the 2xk ladders the DCC
	// groups overlap one another.
	type overlapCase struct {
		name string
		g    *graph.G
		inL  []bool
	}
	g, inL, _ := diamondWithTail()
	cases := []overlapCase{{"diamond-tail", g, inL}}
	for _, k := range []int{4, 6, 9} {
		ladder := gen.Grid(2, k) // rails i-(i+1) and (i+k)-(i+k+1), rungs i-(i+k)
		all := make([]bool, ladder.N())
		for v := range all {
			all[v] = true
		}
		cases = append(cases, overlapCase{fmt.Sprintf("ladder-2x%d", k), ladder, all})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, inL := tc.g, tc.inL
			colors := make([]int, g.N())
			for v := range colors {
				colors[v] = -1
			}
			delta := 3
			acct := &local.Accountant{}
			lc := NewLayerColorer(g, delta, ListColorRandomized, 7, acct)
			if err := colorSmallComponents(g, inL, colors, delta, RandOptions{Seed: 7}.AutoParams(g.N(), delta), lc, acct); err != nil {
				t.Fatal(err)
			}
			for v := 0; v < g.N(); v++ {
				if inL[v] && colors[v] < 0 {
					t.Fatalf("L node %d left uncolored", v)
				}
			}
			if err := verify.PartialColoring(g, colors, delta); err != nil {
				t.Fatal(err)
			}
		})
	}
}
