package core

import (
	"math"
	"math/rand"
	"slices"

	"deltacolor/graph"
	"deltacolor/internal/dist"
	"deltacolor/internal/gallai"
	"deltacolor/local"
)

// RandOptions parameterizes the randomized Δ-coloring algorithm of
// Section 4. Zero values select the paper's defaults (computed from n and
// Δ by AutoParams).
type RandOptions struct {
	Seed    int64
	R       int     // DCC-removal radius r (0 = auto)
	Backoff int     // marking backoff distance b (0 = auto: 6 for Δ>=4, 12 for Δ=3)
	P       float64 // selection probability (0 = auto: Δ^-b clamped to practical scale)
}

// AutoParams fills the zero fields of o per the paper's choices: the
// large-Δ version (Theorem 3) uses a constant radius r and b = 6, p = Δ^-6;
// the small-Δ version (Theorem 1) uses r = Θ(log log n) and b = 12 for
// Δ = 3. p is clamped from below at laptop scale so the marking process
// fires on feasible n (the paper's asymptotic constants assume enormous n;
// see README "Departures from the paper").
func (o RandOptions) AutoParams(n, delta int) RandOptions {
	if o.Backoff == 0 {
		if delta == 3 {
			o.Backoff = 12
		} else {
			o.Backoff = 6
		}
	}
	if o.R == 0 {
		loglog := math.Log(math.Max(2, math.Log(math.Max(2, float64(n)))))
		if delta <= 5 {
			// r = Θ(log log n), rounded up to a multiple of 6 (Lemma 14).
			r := int(math.Ceil(loglog))
			o.R = ((r + 5) / 6) * 6
			if o.R < 6 {
				o.R = 6
			}
		} else if delta <= 10 {
			o.R = 4 // the paper's O(1); 4 keeps 2r-ball collection cheap
		} else {
			// For large Δ a radius-4 ball is already the whole graph at
			// laptop scale; r = 2 is an equally valid choice of the paper's
			// constant and keeps DCC detection at O(poly Δ) per node.
			o.R = 2
		}
	}
	if o.P == 0 {
		p := math.Pow(float64(delta), -float64(o.Backoff))
		// At laptop scale Δ^-12 never fires. The survival probability of a
		// selected node against the backoff is ≈ exp(-p·|B_b|), so the
		// expected number of surviving T-nodes n·p·exp(-p·|B_b|) peaks at
		// p = 1/|B_b|; clamp from below there. Correctness is unaffected
		// (any p works), only the tail bounds of Lemma 23 assume the
		// paper's constant.
		ball := float64(delta)
		for i := 1; i < o.Backoff; i++ {
			ball *= float64(delta - 1)
			if ball > float64(4*n) {
				break
			}
		}
		if min := 1.0 / ball; p < min {
			p = min
		}
		if p > 0.05 {
			p = 0.05
		}
		o.P = p
	}
	return o
}

// Randomized runs the Section 4 algorithm (Theorems 1 and 3):
//
//	I   remove degree-choosable components of radius <= r (phases 1–3);
//	II  shattering: random T-node creation, happy-node layers, small
//	    leftover components (phases 4–6);
//	III color the happy layers in reverse (phase 7);
//	IV  color the DCC layers in reverse and brute-force the base layer
//	    (phases 8–9).
//
// Any node the probabilistic phases fail to cover is completed by the
// frame's safety net (Frame.SafetyNet) and counted in Result.Repairs, so
// the returned coloring is always a valid Δ-coloring on nice graphs.
func Randomized(g *graph.G, opts RandOptions) (*Result, error) {
	f, err := Start(g, "randomized")
	if err != nil {
		return nil, err
	}
	delta, colors, acct, n := f.Delta, f.Colors, f.Acct, g.N()
	o := opts.AutoParams(n, delta)
	lc := NewLayerColorer(g, delta, ListColorRandomized, o.Seed, acct)

	// ---- Phase I: remove DCCs of radius <= r (phases 1-3). ----
	acct.Begin("dcc-removal")
	dccs, _, selRounds := gallai.SelectDCCs(g, o.R)
	acct.Charge("dcc-select", selRounds)

	var base []int
	sB := 0
	if len(dccs) > 0 {
		var misRounds int
		_, base, misRounds = rulingGroups(g, dccs, o.Seed+11)
		acct.Charge("dcc-ruling-set", misRounds*(2*o.R+1))
		sB = 4*o.R + 2
	}
	// Keep only layers 0..sB; beyond that nodes stay in H.
	layerB := Layering(g, base, nil, sB)
	if len(dccs) > 0 {
		acct.Charge("dcc-layers", sB)
	}
	acct.End()

	inH := make([]bool, n)
	for v := 0; v < n; v++ {
		inH[v] = layerB[v] < 0
	}

	// ---- Phase II: shattering (phases 4-6). ----
	acct.Begin("shatter")
	sh := shatter(g, inH, colors, delta, o, acct)
	if sh.nL > 0 {
		if err := colorSmallComponents(g, sh.inL, colors, delta, o, lc, acct); err != nil {
			acct.End() // close "shatter" on the error path (spanpair)
			return nil, err
		}
	}
	acct.End()

	// ---- Phase III: color happy layers C_{2r}..C_0 (phase 7). ----
	lc.ColorLayersReverse(colors, shiftLayers(sh.layerC), sh.sC+1, "C")

	// ---- Phase IV: color DCC layers B_s..B_1 and base B0 (phases 8-9). ----
	lc.ColorLayersReverse(colors, layerB, sB, "B")

	if len(dccs) > 0 {
		maxRad := 0
		for _, d := range dccs {
			maxRad = max(maxRad, colorDCC(g, d, colors, delta))
		}
		acct.Charge("B0-bruteforce", 2*maxRad+1)
	}

	repairs, err := f.SafetyNet(o.Seed + 0x4e9)
	if err != nil {
		return nil, err
	}
	return f.Finish(repairs)
}

// shattering is the outcome of phases (4)–(5) on H.
type shattering struct {
	tnodes int    // selected nodes that survived the backoff and marked a pair
	marked int    // nodes the marking colored with color one
	layerC []int  // happy layers C_0..C_sC by distance to the anchors, -1 elsewhere
	sC     int    // top happy layer
	inL    []bool // L: the H-nodes neither marked nor in a C layer
	nL     int    // |L|
}

// shatter runs phases (4)–(5) on H, the part of the randomized algorithm
// that Randomized and ShatterOnce share: the marking process colors the
// marked nodes with color one in colors, then the happy layers are built
// and what they leave is L. Rounds are charged to acct.
func shatter(g *graph.G, inH []bool, colors []int, delta int, o RandOptions, acct *local.Accountant) shattering {
	rng := rand.New(rand.NewSource(o.Seed ^ 0x5eed))
	marked, isTNode := runMarking(g, inH, o, rng)
	acct.Charge("marking", o.Backoff+2)
	sh := shattering{tnodes: len(marked) / 2}
	for _, v := range marked {
		if colors[v] < 0 {
			sh.marked++
		}
		colors[v] = 0 // color one
	}
	sh.layerC, sh.sC = buildHappyLayers(g, inH, isTNode, delta, o.R, colors)
	acct.Charge("happy-layers", 3*o.R)
	sh.inL = make([]bool, len(inH))
	for v := range inH {
		if inH[v] && colors[v] < 0 && sh.layerC[v] < 0 {
			sh.inL[v] = true
			sh.nL++
		}
	}
	return sh
}

// runMarking performs phase (4) on H: every H-node is selected with
// probability p; a selected node with another selected node within
// distance b (in H) unselects; survivors pick two random non-adjacent
// H-neighbors and mark them with color one, becoming T-nodes. It returns
// the marked pairs, in T-node order, and the T-nodes.
func runMarking(g *graph.G, inH []bool, o RandOptions, rng *rand.Rand) (marked []int, isTNode []bool) {
	n := g.N()
	isTNode = make([]bool, n)
	var initial []int
	for v := 0; v < n; v++ {
		if inH[v] && rng.Float64() < o.P {
			initial = append(initial, v)
		}
	}
	off := backoffs(g, inH, initial, o.Backoff)
	for _, v := range initial {
		if off[v] {
			continue
		}
		// Pick two random non-adjacent H-neighbors.
		nbrs := hNeighbors(g, inH, v)
		pair, ok := randomNonAdjacentPair(g, nbrs, rng)
		if !ok {
			continue // neighborhood is a clique: cannot become a T-node
		}
		isTNode[v] = true
		marked = append(marked, pair[0], pair[1])
	}
	return marked, isTNode
}

// backoffs decides every selected node's backoff in one pass: off[s]
// reports whether another selected node lies within distance b of s in
// G[H]. A BFS of G[H] from all selected nodes to depth b-1 labels each
// node with its distance and nearest selected node, and s backs off iff
// some edge {x, y} of G[H] has nearest[x] = s != nearest[y] and
// dist[x]+dist[y]+1 <= b: along a shortest path from s to another
// selected node within b, the first edge leaving s's region meets that
// bound, however ties were broken. b must be at least 1.
func backoffs(g *graph.G, inH []bool, selected []int, b int) []bool {
	nearest := make([]int, g.N())
	dist := layering(g, selected, inH, b-1, nearest)
	off := make([]bool, g.N())
	for x, dx := range dist {
		if dx < 0 {
			continue
		}
		for _, y := range g.Neighbors(x) {
			if dist[y] >= 0 && nearest[y] != nearest[x] && dx+dist[y]+1 <= b {
				off[nearest[x]] = true
			}
		}
	}
	return off
}

func hNeighbors(g *graph.G, inH []bool, v int) []int {
	var out []int
	for _, u := range g.Neighbors(v) {
		if inH[u] {
			out = append(out, u)
		}
	}
	return out
}

// randomNonAdjacentPair returns two distinct non-adjacent nodes from nbrs,
// chosen uniformly among such pairs, or ok=false when nbrs is a clique.
func randomNonAdjacentPair(g *graph.G, nbrs []int, rng *rand.Rand) ([2]int, bool) {
	var pairs [][2]int
	for i := 0; i < len(nbrs); i++ {
		for j := i + 1; j < len(nbrs); j++ {
			if !g.HasEdge(nbrs[i], nbrs[j]) {
				pairs = append(pairs, [2]int{nbrs[i], nbrs[j]})
			}
		}
	}
	if len(pairs) == 0 {
		return [2]int{}, false
	}
	return pairs[rng.Intn(len(pairs))], true
}

// buildHappyLayers performs phase (5): boundary handling, unmarking near
// the boundary, and the C_0..C_{2r} layers by distance (through uncolored
// H-nodes) to the anchor set (T-nodes and boundary nodes). Returns the
// layer array (-1 for unassigned) and the top layer index used.
func buildHappyLayers(g *graph.G, inH, isTNode []bool, delta, r int, colors []int) ([]int, int) {
	n := g.N()
	// Boundary of H: degree < Δ within H.
	boundary := make([]bool, n)
	var boundaryNodes []int
	for v := 0; v < n; v++ {
		if inH[v] && countIn(g, inH, v) < delta {
			boundary[v] = true
			boundaryNodes = append(boundaryNodes, v)
		}
	}
	// Marked nodes within distance r of the boundary lose their color.
	dist := Layering(g, boundaryNodes, inH, r)
	for v := 0; v < n; v++ {
		if colors[v] == 0 && dist[v] >= 0 {
			colors[v] = -1
		}
	}
	// Anchors: T-nodes that still have two same-colored (color one)
	// neighbors, plus boundary nodes.
	var anchors []int
	for v := 0; v < n; v++ {
		if !inH[v] || colors[v] >= 0 {
			continue
		}
		if boundary[v] {
			anchors = append(anchors, v)
			continue
		}
		if isTNode[v] {
			cnt := 0
			for _, u := range g.Neighbors(v) {
				if inH[u] && colors[u] == 0 {
					cnt++
				}
			}
			if cnt >= 2 {
				anchors = append(anchors, v)
			}
		}
	}
	// Distance through uncolored H-nodes only.
	uncH := make([]bool, n)
	for v := 0; v < n; v++ {
		uncH[v] = inH[v] && colors[v] < 0
	}
	layer := Layering(g, anchors, uncH, 2*r)
	top := 0
	for _, d := range layer {
		top = max(top, d)
	}
	return layer, top
}

// countIn returns v's degree within G[in].
func countIn(g *graph.G, in []bool, v int) int {
	d := 0
	for _, u := range g.Neighbors(v) {
		if in[u] {
			d++
		}
	}
	return d
}

// shiftLayers maps layer i -> i+1 so that C_0 participates in the reverse
// list-coloring pass (C_0 nodes carry their own slack: T-nodes see two
// same-colored neighbors, boundary nodes have an uncolored neighbor in the
// B layers).
func shiftLayers(layer []int) []int {
	out := make([]int, len(layer))
	for v, l := range layer {
		if l < 0 {
			out[v] = -1
		} else {
			out[v] = l + 1
		}
	}
	return out
}

// rulingGroups picks a maximal independent set of node groups, the
// ruling set of the Bourreau–Brandt–Nolin reduction to MIS that both DCC
// phases use: it builds the groups' quotient network straight from g's
// port tables (local.QuotientNetwork: groups that share a member or an
// edge are adjacent; linear in the groups' sizes and boundary edges, not
// an O(m) rebuild), runs dist.LubyMIS on it, and returns the chosen
// groups' indices in order, their members, each once, in order of first
// appearance, and the MIS's rounds on the quotient. The caller charges
// those at its own cost per virtual round.
func rulingGroups(g *graph.G, groups [][]int, seed int64) (chosen, members []int, rounds int) {
	inMIS, rounds := dist.LubyMIS(local.QuotientNetwork(g, groups, seed), nil)
	seen := make([]bool, g.N())
	for gi, grp := range groups {
		if !inMIS[gi] {
			continue
		}
		chosen = append(chosen, gi)
		for _, v := range grp {
			if !seen[v] {
				seen[v] = true
				members = append(members, v)
			}
		}
	}
	return chosen, members, rounds
}

// colorDCC brute-forces a DCC whose nodes are all uncolored: it list-colors
// dcc from its degree lists (gallai.DegreeLists, gallai.BruteListColor)
// and returns its radius. When a node of dcc is already colored, or the
// DCC has no list coloring against its boundary (a heuristic DCC that
// Theorem 8 rules out), it leaves colors unchanged and returns -1; the
// safety net then repairs what stays uncolored.
func colorDCC(g *graph.G, dcc, colors []int, delta int) int {
	if slices.ContainsFunc(dcc, func(v int) bool { return colors[v] >= 0 }) {
		return -1
	}
	sol, err := gallai.BruteListColor(g, dcc, gallai.DegreeLists(g, dcc, colors, delta))
	if err != nil {
		return -1
	}
	for i, v := range dcc {
		colors[v] = sol[i]
	}
	return gallai.SetRadius(g, dcc)
}
