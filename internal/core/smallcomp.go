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
	lGraph := maskGraph(g, inL)
	comp, count := componentsOf(lGraph)
	byComp := make([][]int, count)
	for v := 0; v < n; v++ {
		if inL[v] {
			byComp[comp[v]] = append(byComp[comp[v]], v)
		}
	}

	deferred := 0
	groups, maxRC, err := discoverAnchors(g, inL, colors, byComp, delta)
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

	// Ruling set over the virtual anchor graph, built straight from the
	// masked graph's port tables (see local.QuotientNetwork).
	nodeSets := make([][]int, len(groups))
	for gi, grp := range groups {
		nodeSets[gi] = grp.nodes
	}
	qnet := local.QuotientNetwork(lGraph, nodeSets, o.Seed+23)
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
	layerD := Layering(g, base, inL)
	sD := 0
	for v := 0; v < n; v++ {
		if !inL[v] {
			layerD[v] = -1
			continue
		}
		if inBase[v] {
			layerD[v] = 0
		}
		if layerD[v] > sD {
			sD = layerD[v]
		}
		if layerD[v] < 0 {
			deferred++ // unreachable from any anchor; repaired later
		}
	}
	acct.Charge("small-layers", sD)

	rep, err := lc.ColorLayersReverse(colors, layerD, sD, "D")
	if err != nil {
		return deferred, err
	}
	deferred += rep

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
		for v, c := range sol {
			colors[v] = c
		}
		if r := gallai.SetRadius(g, grp.nodes); r > maxRad {
			maxRad = r
		}
	}
	acct.Charge("small-anchors-color", 2*maxRad+1)
	return deferred, nil
}

// smallComponentNetLimit caps the graph size for which component
// discovery runs through the stepped network. The stepped collector costs
// O(|component|) per-node memory (every member learns its component), so
// it is reserved for the shattered-small regime the phase targets;
// anything larger — or a component overrunning the collector's own cap —
// falls back to the central traversal.
const smallComponentNetLimit = 65536

// componentsOf computes the connected components of the masked L-graph
// through the stepped engine (the message-passing form the shattering
// analysis describes), falling back to the central traversal above
// smallComponentNetLimit or when a component overruns the collector's
// cap. Both number components in ascending order of their minimum
// member, so the fallback is observationally invisible; the tests pin
// that against ConnectedComponents.
func componentsOf(lGraph *graph.G) ([]int, int) {
	if lGraph.N() <= smallComponentNetLimit {
		if comp, count, ok := local.CollectComponents(local.NewNetwork(lGraph, 1)); ok {
			return comp, count
		}
	}
	return lGraph.ConnectedComponents()
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
			key := minOf(d)
			if seen[key] {
				continue // dedupe identical selections cheaply by their min node
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
