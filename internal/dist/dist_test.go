package dist

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"deltacolor/graph"
	"deltacolor/graph/gen"
	"deltacolor/local"
	"deltacolor/verify"
)

// logStar is the base-2 iterated logarithm, the quantity Linial's theorem
// bounds the round count by.
func logStar(n int) int {
	s := 0
	for x := float64(n); x > 1; s++ {
		l := 0.0
		for y := x; y >= 2; y /= 2 {
			l++
		}
		x = l
	}
	return s
}

// families is the shared test-graph zoo: paths, cycles, cliques, and random
// regular graphs of varying degree.
func families(t *testing.T) []struct {
	name string
	g    *graph.G
} {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	return []struct {
		name string
		g    *graph.G
	}{
		{"path n=64", gen.Path(64)},
		{"cycle n=63", gen.Cycle(63)},
		{"cycle n=64", gen.Cycle(64)},
		{"clique K6", gen.Complete(6)},
		{"clique K12", gen.Complete(12)},
		{"torus 8x8", gen.Torus(8, 8)},
		{"random 3-regular n=128", gen.MustRandomRegular(rng, 128, 3)},
		{"random 4-regular n=256", gen.MustRandomRegular(rng, 256, 4)},
		{"random 8-regular n=128", gen.MustRandomRegular(rng, 128, 8)},
	}
}

func assertProper(t *testing.T, g *graph.G, colors []int, bound int, what string) {
	t.Helper()
	for v := 0; v < g.N(); v++ {
		if colors[v] < 0 || colors[v] >= bound {
			t.Fatalf("%s: node %d color %d outside [0, %d)", what, v, colors[v], bound)
		}
	}
	for _, e := range g.Edges() {
		if colors[e[0]] == colors[e[1]] {
			t.Fatalf("%s: edge (%d,%d) monochromatic in %d", what, e[0], e[1], colors[e[0]])
		}
	}
}

func TestLinialFamilies(t *testing.T) {
	for _, tc := range families(t) {
		t.Run(tc.name, func(t *testing.T) {
			net := local.NewNetwork(tc.g, 1)
			colors, k, rounds := Linial(net)
			assertProper(t, tc.g, colors, k, "linial")
			if bound := logStar(tc.g.N()) + 4; rounds > bound {
				t.Fatalf("rounds %d exceed log* bound %d", rounds, bound)
			}
			delta := tc.g.MaxDegree()
			// The final palette is O(Δ²): q² for the smallest usable prime q.
			if cap := (4*delta + 8) * (4*delta + 8); k > cap && k > tc.g.N() {
				t.Fatalf("palette %d not O(Δ²) for Δ=%d", k, delta)
			}
		})
	}
}

// TestLinialLogStarBound checks the theorem's shape at the largest scale in
// the suite: n = 2^16 nodes, constant degree, rounds <= log* n + O(1).
func TestLinialLogStarBound(t *testing.T) {
	if testing.Short() {
		t.Skip("65536-node network; skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(7))
	g := gen.MustRandomRegular(rng, 1<<16, 4)
	net := local.NewNetwork(g, 1)
	colors, k, rounds := Linial(net)
	assertProper(t, g, colors, k, "linial")
	if bound := logStar(1<<16) + 4; rounds > bound {
		t.Fatalf("rounds %d exceed log*(2^16)+4 = %d", rounds, bound)
	}
	if k > 1000 {
		t.Fatalf("palette %d far from O(Δ²) at Δ=4", k)
	}
}

func TestReduceColorsToDeltaPlusOne(t *testing.T) {
	for _, tc := range families(t) {
		t.Run(tc.name, func(t *testing.T) {
			delta := tc.g.MaxDegree()
			net := local.NewNetwork(tc.g, 2)
			base, k, _ := Linial(net)
			net2 := local.NewNetwork(tc.g, 3)
			colors, rounds, err := ReduceColors(net2, base, k, delta+1)
			if err != nil {
				t.Fatalf("ReduceColors: %v", err)
			}
			assertProper(t, tc.g, colors, delta+1, "reduce")
			want := k - (delta + 1)
			if want < 0 {
				want = 0
			}
			if rounds != want {
				t.Fatalf("rounds %d, want one per eliminated class = %d", rounds, want)
			}
		})
	}
}

func TestReduceColorsRejectsBadInput(t *testing.T) {
	g := gen.Complete(5)
	ids := []int{0, 1, 2, 3, 4}
	// Infeasible target: K5 cannot be 3-colored.
	if _, _, err := ReduceColors(local.NewNetwork(g, 1), ids, 5, 3); err == nil {
		t.Fatal("3-coloring K5 did not error")
	}
	// Improper base coloring.
	if _, _, err := ReduceColors(local.NewNetwork(g, 1), []int{0, 0, 1, 2, 3}, 5, 5); err == nil || !strings.Contains(err.Error(), "not proper") {
		t.Fatalf("improper base: got %v", err)
	}
	// Wrong length.
	if _, _, err := ReduceColors(local.NewNetwork(g, 1), ids[:3], 5, 5); err == nil {
		t.Fatal("short base slice did not error")
	}
	// Out-of-range color.
	if _, _, err := ReduceColors(local.NewNetwork(g, 1), []int{0, 1, 2, 3, 9}, 5, 5); err == nil {
		t.Fatal("out-of-range base color did not error")
	}
}

func assertMIS(t *testing.T, g *graph.G, active, inMIS []bool, what string) {
	t.Helper()
	isActive := func(v int) bool { return active == nil || active[v] }
	for _, e := range g.Edges() {
		if inMIS[e[0]] && inMIS[e[1]] {
			t.Fatalf("%s: adjacent nodes %d and %d both in MIS", what, e[0], e[1])
		}
	}
	for v := 0; v < g.N(); v++ {
		if !isActive(v) {
			if inMIS[v] {
				t.Fatalf("%s: inactive node %d in MIS", what, v)
			}
			continue
		}
		if inMIS[v] {
			continue
		}
		dominated := false
		for _, u := range g.Neighbors(v) {
			if isActive(u) && inMIS[u] {
				dominated = true
				break
			}
		}
		if !dominated {
			t.Fatalf("%s: active node %d neither in MIS nor dominated (not maximal)", what, v)
		}
	}
}

func TestLubyMISFamilies(t *testing.T) {
	for _, tc := range families(t) {
		t.Run(tc.name, func(t *testing.T) {
			net := local.NewNetwork(tc.g, 4)
			inMIS, rounds := LubyMIS(net, nil)
			assertMIS(t, tc.g, nil, inMIS, "mis")
			// O(log n) w.h.p.; assert a loose constant multiple.
			if bound := 12*logStar(tc.g.N())*logStar(tc.g.N()) + 20*bitLen(tc.g.N()); rounds > bound {
				t.Fatalf("rounds %d exceed loose O(log n) bound %d", rounds, bound)
			}
		})
	}
}

func bitLen(n int) int {
	b := 0
	for x := n; x > 0; x /= 2 {
		b++
	}
	return b
}

func TestLubyMISActiveSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := gen.MustRandomRegular(rng, 256, 4)
	active := make([]bool, g.N())
	for v := range active {
		active[v] = rng.Intn(3) != 0
	}
	net := local.NewNetwork(g, 5)
	inMIS, _ := LubyMIS(net, active)
	assertMIS(t, g, active, inMIS, "mis-subset")
}

func TestLubyMISClique(t *testing.T) {
	// On a clique the MIS is exactly one node.
	net := local.NewNetwork(gen.Complete(12), 6)
	inMIS, _ := LubyMIS(net, nil)
	count := 0
	for _, in := range inMIS {
		if in {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("clique MIS has %d nodes, want 1", count)
	}
}

// partialScenario erases a random subset of a greedy (Δ+1)-coloring; the
// erased nodes form the active layer and keep (deg+1)-sized lists — the
// exact situation the layering technique creates.
func partialScenario(g *graph.G, seed int64) (active []bool, partial []int, delta int) {
	rng := rand.New(rand.NewSource(seed))
	active = make([]bool, g.N())
	for v := range active {
		active[v] = rng.Intn(2) == 0
	}
	return active, greedyPartial(g, active), g.MaxDegree() + 1
}

// greedyPartial is the greedy (Δ+1)-coloring in node order with the
// active nodes erased (active == nil erases every node).
func greedyPartial(g *graph.G, active []bool) []int {
	delta := g.MaxDegree() + 1
	partial := make([]int, g.N())
	for v := range partial {
		partial[v] = -1
	}
	for v := 0; v < g.N(); v++ {
		used := make([]bool, delta)
		for _, u := range g.Neighbors(v) {
			if c := partial[u]; c >= 0 {
				used[c] = true
			}
		}
		for c := 0; c < delta; c++ {
			if !used[c] {
				partial[v] = c
				break
			}
		}
	}
	for v := range partial {
		if active == nil || active[v] {
			partial[v] = -1
		}
	}
	return partial
}

func TestListColorRandomizedFamilies(t *testing.T) {
	for _, tc := range families(t) {
		t.Run(tc.name, func(t *testing.T) {
			active, partial, delta := partialScenario(tc.g, 11)
			li := NewListInstance(tc.g, active, partial, delta)
			if err := li.CheckDegPlusOne(tc.g); err != nil {
				t.Fatalf("deg+1 violated by construction: %v", err)
			}
			net := local.NewNetwork(tc.g, 12)
			colors, rounds, err := ListColorRandomized(net, li)
			if err != nil {
				t.Fatalf("ListColorRandomized: %v", err)
			}
			if rounds <= 0 && anyTrue(active) {
				t.Fatal("no rounds recorded for a nonempty instance")
			}
			mergeAndCheck(t, tc.g, active, partial, colors, delta)
		})
	}
}

func TestListColorDeterministicFamilies(t *testing.T) {
	for _, tc := range families(t) {
		t.Run(tc.name, func(t *testing.T) {
			active, partial, delta := partialScenario(tc.g, 13)
			li := NewListInstance(tc.g, active, partial, delta)
			baseNet := local.NewNetwork(tc.g, 14)
			base, baseK, _ := Linial(baseNet)
			net := local.NewNetwork(tc.g, 15)
			colors, rounds, err := ListColorDeterministic(net, li, base, baseK)
			if err != nil {
				t.Fatalf("ListColorDeterministic: %v", err)
			}
			if rounds != baseK {
				t.Fatalf("rounds %d, want one per base class = %d", rounds, baseK)
			}
			mergeAndCheck(t, tc.g, active, partial, colors, delta)
		})
	}
}

func anyTrue(bs []bool) bool {
	for _, b := range bs {
		if b {
			return true
		}
	}
	return false
}

// mergeAndCheck overlays the layer solution (its colors aligned with the
// active nodes, ascending) on the partial coloring and checks the combined
// coloring is full and proper in [0, delta).
func mergeAndCheck(t *testing.T, g *graph.G, active []bool, partial, colors []int, delta int) {
	t.Helper()
	merged := append([]int(nil), partial...)
	i := 0
	for v := range merged {
		if active[v] {
			merged[v] = colors[i]
			i++
		}
	}
	assertProper(t, g, merged, delta, "layer+partial")
}

func TestCheckDegPlusOneDetectsTightLists(t *testing.T) {
	g := gen.Complete(5)
	all := make([]bool, 5)
	none := make([]int, 5)
	for v := range all {
		all[v] = true
		none[v] = -1
	}
	// Δ = 4 colors for degree-4 nodes: exactly deg, not deg+1.
	li := NewListInstance(g, all, none, 4)
	if err := li.CheckDegPlusOne(g); err == nil {
		t.Fatal("deg-sized lists passed the deg+1 check")
	}
}

func TestListColorDeterministicRejectsImproperBase(t *testing.T) {
	g := gen.Cycle(6)
	all := make([]bool, 6)
	none := make([]int, 6)
	for v := range all {
		all[v] = true
		none[v] = -1
	}
	li := NewListInstance(g, all, none, 3)
	base := []int{0, 0, 1, 2, 0, 1} // nodes 0 and 1 adjacent, same class
	if _, _, err := ListColorDeterministic(local.NewNetwork(g, 1), li, base, 3); err == nil {
		t.Fatal("improper base classes not rejected")
	}
}

func TestDecomposeFamilies(t *testing.T) {
	for _, tc := range families(t) {
		t.Run(tc.name, func(t *testing.T) {
			beta := 1.0 / float64(bitLen(tc.g.N()))
			dec := Decompose(tc.g, nil, beta, 21)
			if err := VerifyDecomposition(tc.g, nil, dec); err != nil {
				t.Fatalf("VerifyDecomposition: %v", err)
			}
			if dec.Rounds <= 0 {
				t.Fatalf("nonpositive round cost %d", dec.Rounds)
			}
		})
	}
}

func TestDecomposeActiveSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := gen.MustRandomRegular(rng, 256, 4)
	active := make([]bool, g.N())
	for v := range active {
		active[v] = rng.Intn(4) != 0
	}
	dec := Decompose(g, active, 0.25, 3)
	if err := VerifyDecomposition(g, active, dec); err != nil {
		t.Fatalf("VerifyDecomposition: %v", err)
	}
}

func TestVerifyDecompositionCatchesTampering(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	g := gen.MustRandomRegular(rng, 128, 4)
	dec := Decompose(g, nil, 0.25, 5)
	if err := VerifyDecomposition(g, nil, dec); err != nil {
		t.Fatalf("fresh decomposition invalid: %v", err)
	}
	if len(dec.Centers) < 2 {
		t.Skip("decomposition degenerated to one cluster; tampering test moot")
	}
	// Force two adjacent clusters onto the same color.
	var a, b = -1, -1
	for _, e := range g.Edges() {
		if ca, cb := dec.Cluster[e[0]], dec.Cluster[e[1]]; ca != cb {
			a, b = ca, cb
			break
		}
	}
	if a < 0 {
		t.Skip("no adjacent cluster pair")
	}
	saved := dec.ClusterColor[a]
	dec.ClusterColor[a] = dec.ClusterColor[b]
	if err := VerifyDecomposition(g, nil, dec); err == nil {
		t.Fatal("same-colored adjacent clusters not detected")
	}
	dec.ClusterColor[a] = saved
	// Detach a non-center node from its cluster.
	for v := 0; v < g.N(); v++ {
		if dec.Centers[dec.Cluster[v]] != v {
			dec.Cluster[v] = -1
			break
		}
	}
	if err := VerifyDecomposition(g, nil, dec); err == nil {
		t.Fatal("unclustered active node not detected")
	}
}

// TestVerifyColoring pins the checker every pipeline runs before
// returning (core's Finish): total, proper and within the palette [0, Δ).
func TestVerifyColoring(t *testing.T) {
	g := gen.Cycle(6)
	delta := g.MaxDegree()
	if err := verify.DeltaColoring(g, []int{0, 1, 0, 1, 0, 1}, delta); err != nil {
		t.Fatalf("valid coloring rejected: %v", err)
	}
	if err := verify.DeltaColoring(g, []int{0, 1, 0, 1, 0, -1}, delta); err == nil {
		t.Fatal("uncolored node accepted")
	}
	if err := verify.DeltaColoring(g, []int{0, 0, 1, 0, 1, 2}, delta); err == nil {
		t.Fatal("monochromatic edge accepted")
	}
	if err := verify.DeltaColoring(g, []int{0, 1}, delta); err == nil {
		t.Fatal("wrong-length slice accepted")
	}
	if err := verify.DeltaColoring(g, []int{0, 1, 0, 1, 0, 2}, delta); err == nil {
		t.Fatal("proper coloring using color Δ accepted")
	}
}

// TestPipelineLinialReduceList exercises the composition the algorithms
// use: Linial base -> Δ+1 reduction -> erase a layer -> recolor it as a
// deterministic list instance scheduled by the reduced classes, in Δ+1
// rounds.
func TestPipelineLinialReduceList(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := gen.MustRandomRegular(rng, 256, 4)
	delta := g.MaxDegree()

	base, k, _ := Linial(local.NewNetwork(g, 41))
	colors, _, err := ReduceColors(local.NewNetwork(g, 42), base, k, delta+1)
	if err != nil {
		t.Fatal(err)
	}
	active := make([]bool, g.N())
	partial := append([]int(nil), colors...)
	for v := 0; v < g.N(); v += 3 {
		active[v] = true
		partial[v] = -1
	}
	li := NewListInstance(g, active, partial, delta+1)
	if err := li.CheckDegPlusOne(g); err != nil {
		t.Fatal(err)
	}
	got, rounds, err := ListColorDeterministic(local.NewNetwork(g, 43), li, colors, delta+1)
	if err != nil {
		t.Fatal(err)
	}
	if rounds != delta+1 {
		t.Fatalf("the layer took %d rounds, want Δ+1 = %d", rounds, delta+1)
	}
	mergeAndCheck(t, g, active, partial, got, delta+1)
}

// TestRoundLimitCutReadsNoOutput pins the cut-run contract: a FaultPlan's
// RoundLimit force-halts nodes before they write their outputs, and those
// nodes must read the value meaning "no output" (false for MIS, -1 for a
// color) instead of panicking the caller. Neither protocol can halt an
// active node before round 3 (a node first halts after the round A that
// opens its second phase), so at RoundLimit 2 every active node is still
// running at the cut; inactive nodes halt at their first Step.
func TestRoundLimitCutReadsNoOutput(t *testing.T) {
	g := gen.MustRandomRegular(rand.New(rand.NewSource(8)), 128, 4)
	n := g.N()
	active := make([]bool, n)
	none := make([]int, n)
	for v := range active {
		active[v] = v%3 != 0
		none[v] = -1
	}
	li := NewListInstance(g, active, none, 5)
	net := func(limit int) *local.Network {
		net := local.NewNetwork(g, 1)
		if limit > 0 {
			if err := net.SetFaultPlan(&local.FaultPlan{RoundLimit: limit}); err != nil {
				t.Fatal(err)
			}
		}
		return net
	}
	checkCut := func(name string, net *local.Network) {
		t.Helper()
		if net.Rounds() != 2 || !net.LastRunStats().RoundLimited {
			t.Fatalf("%s: %d rounds, RoundLimited = %v; want a run cut at round 2", name, net.Rounds(), net.LastRunStats().RoundLimited)
		}
	}

	// Uncut, both protocols write real outputs, so the checks below are
	// not vacuous.
	if inMIS, _ := LubyMIS(net(0), active); !slices.Contains(inMIS, true) {
		t.Fatal("uncut LubyMIS chose no node")
	}
	if _, _, err := ListColorRandomized(net(0), li); err != nil {
		t.Fatalf("uncut ListColorRandomized: %v", err)
	}

	cut := net(2)
	inMIS, _ := LubyMIS(cut, active)
	checkCut("LubyMIS", cut)
	if v := slices.Index(inMIS, true); v >= 0 {
		t.Fatalf("LubyMIS: node %d reads true after the cut", v)
	}
	cut = net(2)
	colors, _, err := ListColorRandomized(cut, li)
	checkCut("ListColorRandomized", cut)
	if err == nil {
		t.Fatal("ListColorRandomized: a cut run reported the instance solved")
	}
	for i, c := range colors {
		if c != -1 {
			t.Fatalf("ListColorRandomized: node %d reads color %d after the cut, want -1", li.Nodes[i], c)
		}
	}
}
