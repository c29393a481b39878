package core

import (
	"math"
	"slices"

	"deltacolor/graph"
	"deltacolor/internal/brooks"
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
// Whatever the heuristics leave uncolored — components without an
// anchor, nodes no anchor reaches, failed layers and anchors — stays so
// for the frame's safety net (Frame.SafetyNet).
func colorSmallComponents(g *graph.G, inL []bool, colors []int, delta int, o RandOptions, lc *LayerColorer, acct *local.Accountant) error {
	groups, maxRC, err := discoverAnchors(g, inL, colors, maskedComponents(g, inL), delta)
	if err != nil {
		return err
	}
	acct.Charge("small-anchors", 2*maxRC)
	if len(groups) == 0 {
		return nil // no component could be anchored
	}

	// Ruling set over the virtual anchor graph: anchors are L-nodes, so
	// the edges g has between them are exactly G[L]'s.
	nodeSets := make([][]int, len(groups))
	for gi, grp := range groups {
		nodeSets[gi] = grp.nodes
	}
	chosen, base, misRounds := rulingGroups(g, nodeSets, o.Seed+23)
	acct.Charge("small-ruling-set", misRounds*(2*maxRC+1))

	// D layers by distance within L to the chosen anchors.
	layerD := Layering(g, base, inL, -1)
	sD := max(0, slices.Max(layerD))
	acct.Charge("small-layers", sD)
	lc.ColorLayersReverse(colors, layerD, sD, "D")

	// Anchors last (independently: MIS groups are pairwise non-adjacent).
	maxRad := 0
	for _, gi := range chosen {
		grp := groups[gi]
		if !grp.free {
			maxRad = max(maxRad, colorDCC(g, grp.nodes, colors, delta))
		} else if v := grp.nodes[0]; colors[v] < 0 {
			colors[v] = brooks.FreeColor(g, colors, v, delta) // -1: none free
		}
	}
	acct.Charge("small-anchors-color", 2*maxRad+1)
	return nil
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
			key := slices.Min(d)
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
