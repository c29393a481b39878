package core

import (
	"math"

	"deltacolor/graph"
	"deltacolor/internal/brooks"
	"deltacolor/internal/dist"
	"deltacolor/internal/gallai"
	"deltacolor/local"
)

// colorSmallComponents implements Section 4.3 (phase 6): the components of
// L — the nodes that neither found a T-node nor sit near the boundary —
// are shattered-small w.h.p. (Lemmas 23/24) and are colored first:
//
//	(1) anchors: free nodes (degree < Δ or an uncolored neighbor outside
//	    the component) and DCCs of radius <= R_C inside the component;
//	(2) a ruling set (MIS) over the virtual anchor graph;
//	(3) layers D_i by distance to the chosen anchors, colored in reverse
//	    as (deg+1)-list instances;
//	(4) anchors last: DCCs brute-forced from degree lists, free nodes
//	    greedily (their outside slack guarantees a free color).
//
// Components the heuristics fail to anchor are deferred to the Brooks
// repair pass; the count is returned.
func colorSmallComponents(g *graph.G, inL []bool, colors []int, delta int, o RandOptions, lc *LayerColorer, acct *local.Accountant) (int, error) {
	n := g.N()
	deferred := 0
	groups, maxRC, err := discoverAnchors(g, inL, colors, maskedComponents(g, inL), delta)
	if err != nil {
		return deferred, err
	}
	acct.Charge("small-anchors", 2*maxRC)
	if len(groups) == 0 {
		// No component could be anchored; defer everything to the Brooks
		// repair pass.
		for v := 0; v < n; v++ {
			if inL[v] {
				deferred++
			}
		}
		return deferred, nil
	}

	// Ruling set over the virtual anchor graph, built straight from g's
	// port tables (see local.QuotientNetwork): anchors are L-nodes, so the
	// edges g has between them are exactly G[L]'s.
	nodeSets := make([][]int, len(groups))
	for gi, grp := range groups {
		nodeSets[gi] = grp.nodes
	}
	qnet := local.QuotientNetwork(g, nodeSets, o.Seed+23)
	inMIS, misRounds := dist.LubyMIS(qnet, nil)
	acct.Charge("small-ruling-set", misRounds*(2*maxRC+1))

	inBase := make([]bool, n)
	var base []int
	var chosen []int
	for gi, grp := range groups {
		if !inMIS[gi] {
			continue
		}
		chosen = append(chosen, gi)
		for _, v := range grp.nodes {
			if !inBase[v] {
				inBase[v] = true
				base = append(base, v)
			}
		}
	}

	// D layers by distance within L to the chosen anchors.
	layerD := Layering(g, base, inL, -1)
	sD := 0
	for v := 0; v < n; v++ {
		sD = max(sD, layerD[v])
		if inL[v] && layerD[v] < 0 {
			deferred++ // unreachable from any anchor; repaired later
		}
	}
	acct.Charge("small-layers", sD)

	deferred += lc.ColorLayersReverse(colors, layerD, sD, "D")

	// Anchors last (independently: MIS groups are pairwise non-adjacent).
	maxRad := 0
	for _, gi := range chosen {
		grp := groups[gi]
		if grp.free {
			v := grp.nodes[0]
			if colors[v] < 0 {
				if c := brooks.FreeColor(g, colors, v, delta); c >= 0 {
					colors[v] = c
				} else {
					deferred++
				}
			}
			continue
		}
		if !allUncolored(colors, grp.nodes) {
			continue
		}
		lists := gallai.DegreeLists(g, grp.nodes, colors, delta)
		sol, err := gallai.BruteListColor(g, grp.nodes, lists)
		if err != nil {
			deferred += len(grp.nodes)
			continue
		}
		for i, v := range grp.nodes {
			colors[v] = sol[i]
		}
		if r := gallai.SetRadius(g, grp.nodes); r > maxRad {
			maxRad = r
		}
	}
	acct.Charge("small-anchors-color", 2*maxRad+1)
	return deferred, nil
}

// anchorGroup is one candidate anchor of a small component: a DCC (free ==
// false) or a free-node singleton (free == true).
type anchorGroup struct {
	nodes []int
	free  bool
}

// discoverAnchors finds the candidate anchors of every component: DCC
// groups first, then free-node singletons for nodes outside every DCC
// group of their component, so no free singleton overlaps a DCC group
// (TestDiscoverAnchorsOverlapExcluded): a free node frequently sits
// inside a degree-choosable component, and a redundant singleton anchor
// would only shrink the ruling set's coverage. DCC groups may overlap
// one another (on the 2x4 ladder they are {0,1,4,5}, {1,2,5,6} and
// {2,3,6,7}); the quotient network marks groups that share a member
// adjacent (TestQuotientNetworkSharedMemberAdjacent), so the DCC groups
// the ruling set chooses are disjoint. maxRC is the largest
// per-component DCC search radius, the ball the anchor discovery is
// charged for.
func discoverAnchors(g *graph.G, inL []bool, colors []int, byComp [][]int, delta int) (groups []anchorGroup, maxRC int, err error) {
	for _, nodes := range byComp {
		if len(nodes) == 0 {
			continue
		}
		base := math.Max(2, float64(delta-2))
		rc := int(math.Ceil(2*math.Log(float64(len(nodes))+1)/math.Log(base))) + 1
		if rc > maxRC {
			maxRC = rc
		}
		// DCCs inside the component (searched in the induced subgraph so
		// the component's own structure decides choosability).
		sub, orig, err := g.InducedSubgraph(nodes)
		if err != nil {
			return nil, maxRC, err
		}
		subDCCs, _, _ := gallai.SelectDCCs(sub, rc)
		seen := map[int]bool{}
		inDCC := map[int]bool{}
		for _, d := range subDCCs {
			// At most one DCC per minimum node. SelectDCCs returns
			// distinct sets, so this drops distinct DCCs, and that thinning
			// keeps the anchor quotient sparse: without it the 4x4 torus
			// yields 14 groups instead of 9, and on rr4 with R = 1 the
			// small-component ruling set charges 351 rounds instead of 273
			// at n = 512 (TestDiscoverAnchorsOneDCCPerMinNode).
			key := minOf(d)
			if seen[key] {
				continue
			}
			seen[key] = true
			mapped := make([]int, len(d))
			for i, x := range d {
				mapped[i] = orig[x]
			}
			groups = append(groups, anchorGroup{nodes: mapped})
			for _, v := range mapped {
				inDCC[v] = true
			}
		}
		// Free nodes not already anchored by a DCC group.
		for _, v := range nodes {
			if !inDCC[v] && isFreeNode(g, inL, colors, v, delta) {
				groups = append(groups, anchorGroup{nodes: []int{v}, free: true})
			}
		}
	}
	return groups, maxRC, nil
}

// isFreeNode implements the Section 4.3 definition: degree < Δ, or at
// least one neighbor outside the component that is not colored with the
// first color after shattering (i.e. still uncolored).
func isFreeNode(g *graph.G, inL []bool, colors []int, v, delta int) bool {
	if g.Deg(v) < delta {
		return true
	}
	for _, u := range g.Neighbors(v) {
		if !inL[u] && colors[u] < 0 {
			return true
		}
	}
	return false
}

func minOf(xs []int) int {
	m := xs[0]
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}
