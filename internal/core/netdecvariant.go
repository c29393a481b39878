package core

import (
	"math"

	"deltacolor/graph"
	"deltacolor/internal/dist"
	"deltacolor/local"
)

// DeterministicNetDec runs the Theorem 21 algorithm ([PS95, Theorem 5],
// reproved in the paper via the layering technique):
//
//	(1) compute a network decomposition (our LDD substitution for the
//	    2^O(√log n) deterministic decomposition of [PS92], see README
//	    "Departures from the paper");
//	(2) build the base layer B0 as an (R, ·) ruling set computed greedily
//	    over the decomposition's color classes, R chosen so B0 members'
//	    Brooks recoloring balls are disjoint;
//	(3) peel layers B_1..B_s by distance to B0 and re-color them in reverse
//	    order, each a (deg+1)-list instance;
//	(4) color B0 via the distributed Brooks theorem (Theorem 5).
//
// Steps (3) and (4) are Deterministic's (Theorem 4) layered body; only B0
// differs, riding on the decomposition instead of the AGLP recursion.
// Experiment E8 compares the two round counts.
func DeterministicNetDec(g *graph.G, seed int64) (*Result, error) {
	return layered(g, "netdec", seed, func(acct *local.Accountant, bigR int) ([]int, error) {
		// (1) Network decomposition with beta = Θ(1/log n).
		beta := 1.0 / math.Max(1, math.Log(float64(g.N()+2)))
		dec := dist.Decompose(g, nil, beta, seed)
		if err := dist.VerifyDecomposition(g, nil, dec); err != nil {
			return nil, err
		}
		acct.Charge("decomposition", dec.Rounds)

		// (2) B0: greedy (R, ·) ruling set over decomposition color
		// classes, simulated centrally. Iterating one class costs one
		// cluster-graph round = 2·MaxRadius+1 G-rounds, plus a distance-R
		// probe per chosen candidate batch; that bound is the charge.
		base := rulingSetViaDecomposition(g, dec, bigR)
		acct.Charge("ruling-set", dec.NumColors*(2*dec.MaxRadius+1+bigR))
		if len(base) == 0 {
			base = []int{0}
		}
		return base, nil
	})
}

// rulingSetViaDecomposition selects cluster centers class by class,
// keeping a center only when no previously chosen node lies within
// distance < bigR. The result is an independent-at-distance-bigR set; it
// need not dominate the graph (unreached nodes end up in high layers,
// which the layering pass still covers because Layering assigns -1 only
// to disconnected nodes — callers treat the whole reachable set).
//
// A candidate is rejected iff some already-chosen node lies within
// distance bigR-1 of it, so one central pass decides all: blocked is the
// union of the chosen centers' radius-(bigR-1) balls, each added by one
// bounded Layering. The pipeline charges the pass at its bound, as it
// does the AGLP ruling set. The tests keep the per-candidate central BFS
// probe as the reference.
func rulingSetViaDecomposition(g *graph.G, dec *dist.Decomposition, bigR int) []int {
	var base []int
	blocked := make([]bool, g.N())
	for class := 0; class < dec.NumColors; class++ {
		for ci, center := range dec.Centers {
			if dec.ClusterColor[ci] != class || blocked[center] {
				continue
			}
			base = append(base, center)
			for v, d := range Layering(g, []int{center}, nil, bigR-1) {
				if d >= 0 {
					blocked[v] = true
				}
			}
		}
	}
	return base
}
