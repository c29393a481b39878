// Package core implements the paper's Δ-coloring algorithms: the layering
// technique (Section 3), the deterministic algorithm of Theorem 4, the
// network-decomposition variant of Theorem 21, and the randomized
// small-Δ/large-Δ algorithms of Theorems 1 and 3 (Section 4) with their
// DCC-removal, marking/T-node and shattering phases.
package core

import (
	"fmt"
	"slices"

	"deltacolor/graph"
	"deltacolor/internal/dist"
	"deltacolor/local"
)

// Layering assigns every node of a masked node set its distance to a set
// of sources, producing the layers B_0, B_1, ..., B_s of Section 3. The
// shattering phases take all their distances from it, reading G[H], G[L]
// and G[uncolored H] through masks on g rather than copies.
//
// layer[v] = dist(v, sources) measured within G[mask] when mask is
// non-nil (otherwise in G); -1 for nodes outside the mask, unreachable
// nodes and nodes farther than maxDepth (maxDepth < 0: unbounded).
// Sources outside the mask are ignored; duplicate sources are harmless.
func Layering(g *graph.G, sources []int, mask []bool, maxDepth int) []int {
	return layering(g, sources, mask, maxDepth, nil)
}

// layering is Layering that, when nearest is non-nil, also sets
// nearest[v] to the source each reached node v was reached from.
func layering(g *graph.G, sources []int, mask []bool, maxDepth int, nearest []int) []int {
	layer := slices.Repeat([]int{-1}, g.N())
	queue := make([]int, 0, len(sources))
	for _, s := range sources {
		if layer[s] < 0 && (mask == nil || mask[s]) {
			layer[s] = 0
			queue = append(queue, s)
			if nearest != nil {
				nearest[s] = s
			}
		}
	}
	for i := 0; i < len(queue); i++ {
		v := queue[i]
		if layer[v] == maxDepth {
			continue
		}
		for _, w := range g.Neighbors(v) {
			if layer[w] < 0 && (mask == nil || mask[w]) {
				layer[w] = layer[v] + 1
				queue = append(queue, w)
				if nearest != nil {
					nearest[w] = nearest[v]
				}
			}
		}
	}
	return layer
}

// maskedComponents returns the connected components of G[mask], each as
// its members in ascending order, ranked by minimum member: the order
// graph.ConnectedComponents numbers them in on a copy of G[mask].
func maskedComponents(g *graph.G, mask []bool) [][]int {
	seen := make([]bool, g.N())
	var comps [][]int
	for v := range mask {
		if !mask[v] || seen[v] {
			continue
		}
		seen[v] = true
		comp := []int{v}
		for i := 0; i < len(comp); i++ {
			for _, w := range g.Neighbors(comp[i]) {
				if mask[w] && !seen[w] {
					seen[w] = true
					comp = append(comp, w)
				}
			}
		}
		slices.Sort(comp)
		comps = append(comps, comp)
	}
	return comps
}

// ListColorMode selects the list-coloring subroutine used when re-coloring
// layers (Theorem 18's deterministic algorithm vs Theorem 19's randomized
// one, per our substitutions in README "Departures from the paper").
type ListColorMode int

const (
	// ListColorRandomized uses random color trials (O(log n) w.h.p.).
	ListColorRandomized ListColorMode = iota + 1
	// ListColorDeterministic schedules by the classes of a Linial coloring.
	ListColorDeterministic
)

// LayerColorer colors layered node sets in reverse layer order, one
// (deg+1)-list-coloring instance per layer, charging rounds to the
// accountant. It owns the base coloring needed by the deterministic mode
// and a single network over g that every layer instance reuses (reseeded
// per layer) — the port tables are built once, not once per phase.
type LayerColorer struct {
	g          *graph.G
	delta      int
	mode       ListColorMode
	seed       int64
	acct       *local.Accountant
	net        *local.Network
	baseColors []int
	baseK      int
}

// NewLayerColorer prepares a colorer. In deterministic mode it computes a
// Linial base coloring up front (charged to the accountant once).
func NewLayerColorer(g *graph.G, delta int, mode ListColorMode, seed int64, acct *local.Accountant) *LayerColorer {
	lc := &LayerColorer{g: g, delta: delta, mode: mode, seed: seed, acct: acct}
	lc.net = local.NewNetwork(g, seed)
	if mode == ListColorDeterministic {
		colors, k, rounds := dist.Linial(lc.net)
		lc.baseColors, lc.baseK = colors, k
		acct.Charge("linial", rounds)
	}
	return lc
}

// ColorLayersReverse colors every node with layer[v] in [1, s] (and
// colors[v] < 0) in decreasing layer order, writing into colors. Layer 0 is
// the caller's responsibility (base layers are colored with different
// techniques). Nodes whose list instance turns out infeasible are repaired
// with the distributed Brooks procedure and counted in repairs.
func (lc *LayerColorer) ColorLayersReverse(colors []int, layer []int, s int, phase string) (repairs int, err error) {
	lc.acct.Begin(phase)
	defer lc.acct.End()
	for i := s; i >= 1; i-- {
		active := make([]bool, lc.g.N())
		any := false
		for v := range layer {
			if layer[v] == i && colors[v] < 0 {
				active[v] = true
				any = true
			}
		}
		if !any {
			continue
		}
		li := dist.NewListInstance(lc.g, active, colors, lc.delta)
		got, rounds, solveErr := lc.solve(li, int64(i))
		lc.acct.Charge(fmt.Sprintf("%s[%d]", phase, i), rounds)
		if solveErr != nil {
			// Infeasible or unlucky instance: repair node-by-node with the
			// Brooks token procedure at the end; mark and continue.
			repairs += repairDefer(colors, active)
			continue
		}
		for v := range got {
			if active[v] {
				colors[v] = got[v]
			}
		}
	}
	return repairs, nil
}

// solve runs the configured list-coloring subroutine on the shared
// network, reseeded per layer (the per-layer seeds are unchanged from the
// build-a-network-per-layer era, so colorings are byte-identical — only
// the repeated O(n + Σ deg) construction cost is gone).
func (lc *LayerColorer) solve(li *dist.ListInstance, salt int64) ([]int, int, error) {
	if err := li.CheckDegPlusOne(lc.g); err != nil {
		return nil, 0, err
	}
	lc.net.Reseed(lc.seed*31 + salt)
	switch lc.mode {
	case ListColorDeterministic:
		return dist.ListColorDeterministic(lc.net, li, lc.baseColors, lc.baseK)
	default:
		return dist.ListColorRandomized(lc.net, li)
	}
}

// repairDefer leaves the active nodes uncolored (colors[v] stays -1) so the
// final repair pass can fix them; returns how many were deferred.
func repairDefer(colors []int, active []bool) int {
	n := 0
	for v := range active {
		if active[v] && colors[v] < 0 {
			n++
		}
	}
	return n
}
