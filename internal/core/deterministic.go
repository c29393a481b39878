package core

import (
	"fmt"
	"slices"

	"deltacolor/graph"
	"deltacolor/internal/brooks"
	"deltacolor/local"
)

// Deterministic runs the Theorem 4 algorithm:
//
//	(1) build base layer B0 as an (R, β) ruling set (deterministic AGLP
//	    recursion), R chosen so the Brooks recolorings of B0 nodes stay in
//	    disjoint balls;
//	(2) peel layers B_1..B_s by distance to B0;
//	(3) re-color layers in reverse order, each a (deg+1)-list instance,
//	    with the deterministic list-coloring subroutine;
//	(4) color B0 nodes independently via the distributed Brooks theorem.
//
// Round complexity with our substitutions: O(Δ·log²n + Δ²) — the paper's
// O(√Δ log^1.5Δ · log²n) with the Δ-dependence of our simpler list-coloring
// subroutine, Δ+1 rounds per layer after one O(Δ²)-round reduction of the
// schedule; the log²n growth in n is the quantity experiment E3 checks.
func Deterministic(g *graph.G, seed int64) (*Result, error) {
	return layered(g, "deterministic", seed, func(acct *local.Accountant, bigR int) ([]int, error) {
		rs := DetRulingSetCompute(g, nil, bigR)
		acct.Charge("ruling-set", rs.Rounds)
		var base []int
		for v, in := range rs.InSet {
			if in {
				base = append(base, v)
			}
		}
		return base, nil
	})
}

// layered is the Section 3 body that Theorems 4 and 21 share. Inside the
// "decompose" span, buildB0 returns the base layer B0 as an R-ruling set
// (charging its own rounds), and the layers B_1..B_s are peeled by
// distance to B0. The layers are then list-colored in reverse with the
// deterministic subroutine, each scheduled by one (Δ+1)-coloring of g
// (NewLayerColorer), B0 is colored via Theorem 5 through the batch
// engine (the ruling-set spacing guarantees disjoint recoloring balls, so
// every B0 repair lands in one batch charged max rounds — the
// independence verified, not assumed), and the frame's safety net
// completes any node a failed layer left uncolored.
func layered(g *graph.G, name string, seed int64, buildB0 func(acct *local.Accountant, bigR int) ([]int, error)) (*Result, error) {
	f, err := Start(g, name)
	if err != nil {
		return nil, err
	}
	// R: B0 members must be far enough apart that Brooks recolorings
	// (search radius rB, touched radius <= 3·rB) do not interact.
	bigR := 6*brooks.SearchRadius(g.N(), f.Delta) + 3

	f.Acct.Begin("decompose")
	base, err := buildB0(f.Acct, bigR)
	if err != nil {
		f.Acct.End() // close "decompose" on the error path (spanpair)
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	layer := Layering(g, base, nil, -1)
	s := max(0, slices.Max(layer))
	f.Acct.Charge("layering", s)
	f.Acct.End()

	lc := NewLayerColorer(g, f.Delta, ListColorDeterministic, seed, f.Acct)
	lc.ColorLayersReverse(f.Colors, layer, s, "layers")
	if err := f.Repair("brooks-B0", "brooks-B0", base, seed+0xb0); err != nil {
		return nil, err
	}
	repairs, err := f.SafetyNet(seed + 0x4e9)
	if err != nil {
		return nil, err
	}
	return f.Finish(repairs)
}
