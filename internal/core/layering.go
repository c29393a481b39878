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
	// ListColorDeterministic schedules by the classes of one
	// (Δ+1)-coloring of the graph.
	ListColorDeterministic
)

// LayerColorer colors layered node sets in reverse layer order, one
// (deg+1)-list-coloring instance per layer, charging rounds to the
// accountant. It owns the schedule of the deterministic mode and a single
// network over g that every layer instance reuses (reseeded per layer) —
// the port tables are built once, not once per phase.
type LayerColorer struct {
	g     *graph.G
	delta int
	mode  ListColorMode
	seed  int64
	acct  *local.Accountant
	net   *local.Network
	// classes is the deterministic mode's schedule, a (Δ+1)-coloring of
	// g; when it could not be computed, classErr says why, and every
	// layer defers to the repair.
	classes  []int
	classErr error
}

// NewLayerColorer prepares a colorer. In deterministic mode it computes
// the schedule up front: a Linial coloring with k = O(Δ²) colors, reduced
// once to Δ+1 colors in k-(Δ+1) rounds, each charged to the accountant
// once ("linial", "reduce"). Every layer then takes Δ+1 rounds. Under a
// FaultPlan the schedule can come out unusable: the reduction rejects an
// improper Linial coloring, and a node the RoundLimit cut off keeps class
// -1. A layer that meets either fails and stays uncolored, as any layer
// whose instance fails.
func NewLayerColorer(g *graph.G, delta int, mode ListColorMode, seed int64, acct *local.Accountant) *LayerColorer {
	lc := &LayerColorer{g: g, delta: delta, mode: mode, seed: seed, acct: acct}
	lc.net = local.NewNetwork(g, seed)
	if mode == ListColorDeterministic {
		linial, k, rounds := dist.Linial(lc.net)
		acct.Charge("linial", rounds)
		lc.classes, rounds, lc.classErr = dist.ReduceColors(lc.net, linial, k, delta+1)
		acct.Charge("reduce", rounds)
	}
	return lc
}

// ColorLayersReverse colors every node with layer[v] in [1, s] (and
// colors[v] < 0) in decreasing layer order, writing into colors. Layer 0 is
// the caller's responsibility (base layers are colored with different
// techniques). A layer whose list instance fails (not deg+1, or unsolved)
// stays uncolored for the frame's safety net (Frame.SafetyNet).
func (lc *LayerColorer) ColorLayersReverse(colors []int, layer []int, s int, phase string) {
	lc.acct.Begin(phase)
	defer lc.acct.End()
	members := make([][]int, s+1)
	for v, l := range layer {
		if l >= 1 && l <= s && colors[v] < 0 {
			members[l] = append(members[l], v)
		}
	}
	active := make([]bool, lc.g.N())
	for i := s; i >= 1; i-- {
		nodes := members[i]
		if len(nodes) == 0 {
			continue
		}
		for _, v := range nodes {
			active[v] = true
		}
		li := &dist.ListInstance{Nodes: nodes, Active: active, Partial: colors, Delta: lc.delta}
		got, rounds, err := lc.solve(li, int64(i))
		lc.acct.Charge(fmt.Sprintf("%s[%d]", phase, i), rounds)
		for j, v := range nodes {
			active[v] = false
			if err == nil {
				colors[v] = got[j]
			}
		}
	}
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
		if lc.classErr != nil {
			return nil, 0, lc.classErr
		}
		return dist.ListColorDeterministic(lc.net, li, lc.classes, lc.delta+1)
	default:
		return dist.ListColorRandomized(lc.net, li)
	}
}
