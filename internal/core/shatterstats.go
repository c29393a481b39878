package core

import (
	"slices"

	"deltacolor/graph"
	"deltacolor/local"
)

// ShatterStats quantifies one run of the Section 4 marking process
// (phases 4–5) without completing the coloring. Experiment E6 uses it to
// check Lemmas 22–24: the per-node survival probability should be
// poly(Δ)-small and the surviving components poly(Δ)·log n-sized; E10
// sweeps the (p, b) design choices through it.
type ShatterStats struct {
	N         int     // nodes in the trial graph H
	Delta     int     //
	P         float64 // selection probability used
	Backoff   int     // backoff distance used
	R         int     // happiness radius used
	TNodes    int     // selected nodes that survived backoff and marked a pair
	Marked    int     // nodes colored with color one
	Survivors int     // nodes left in L (unhappy, unmarked)
	// MaxComponent is the largest connected component of L.
	MaxComponent int
	// Components is the number of connected components of L.
	Components int
}

// SurvivalRate is Survivors / N.
func (s ShatterStats) SurvivalRate() float64 {
	if s.N == 0 {
		return 0
	}
	return float64(s.Survivors) / float64(s.N)
}

// ShatterOnce runs phases (4)–(5) of the randomized algorithm on the whole
// graph (treating every node as part of the remainder graph H), through
// the same code as Randomized, and reports the shattering statistics. The
// graph is not modified.
func ShatterOnce(g *graph.G, opts RandOptions) ShatterStats {
	n, delta := g.N(), g.MaxDegree()
	o := opts.AutoParams(n, delta)
	inH := slices.Repeat([]bool{true}, n)
	colors := slices.Repeat([]int{-1}, n)
	sh := shatter(g, inH, colors, delta, o, &local.Accountant{})
	st := ShatterStats{
		N:         n,
		Delta:     delta,
		P:         o.P,
		Backoff:   o.Backoff,
		R:         o.R,
		TNodes:    sh.tnodes,
		Marked:    sh.marked,
		Survivors: sh.nL,
	}
	for _, comp := range maskedComponents(g, sh.inL) {
		st.Components++
		st.MaxComponent = max(st.MaxComponent, len(comp))
	}
	return st
}
