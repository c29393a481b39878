package gallai

import (
	"fmt"

	"deltacolor/graph"
)

// The executable forms of the structural lemmas of Section 2.2. These are
// used both by tests (the lemmas must hold on DCC-free inputs) and by
// experiment E5/E9, which measures the expansion they predict.

// CheckUniqueBFS verifies Lemma 10 at node v: in a graph with no DCC of
// radius <= r, the depth-r BFS tree rooted at v is unique — every node at
// level t in [1, r] has exactly one neighbor on level t-1. Returns an error
// naming the first violating node.
func CheckUniqueBFS(g *graph.G, v, r int) error {
	res := g.BFSLimited(v, r)
	for _, u := range res.Order {
		t := res.Dist[u]
		if t < 1 || t > r {
			continue
		}
		up := 0
		for _, w := range g.Neighbors(u) {
			if res.Dist[w] == t-1 {
				up++
			}
		}
		if up != 1 {
			return fmt.Errorf("unique BFS: node %d at level %d has %d up-edges", u, t, up)
		}
	}
	return nil
}

// CheckNeighborhoodCliques verifies Lemma 13 at node v: with no DCC of
// radius 1, the connected components of G[N(v)] are cliques.
func CheckNeighborhoodCliques(g *graph.G, v int) error {
	nbrs := g.Neighbors(v)
	sub, orig, err := g.InducedSubgraph(nbrs)
	if err != nil {
		return err
	}
	comp, count := sub.ConnectedComponents()
	byComp := make([][]int, count)
	for i, c := range comp {
		byComp[c] = append(byComp[c], i)
	}
	for _, nodes := range byComp {
		if !sub.IsCliqueSet(nodes) {
			back := make([]int, len(nodes))
			for i, x := range nodes {
				back[i] = orig[x]
			}
			return fmt.Errorf("neighborhood cliques: component %v of N(%d) is not a clique", back, v)
		}
	}
	return nil
}

// SphereSizes returns |B_t(v)| for t = 0..r: the number of nodes at
// distance exactly t from v. Used to measure the expansion promised by
// Lemmas 12/14/15.
func SphereSizes(g *graph.G, v, r int) []int {
	res := g.BFSLimited(v, r)
	out := make([]int, r+1)
	for _, u := range res.Order {
		if res.Dist[u] <= r {
			out[res.Dist[u]]++
		}
	}
	return out
}

// ExpansionReport captures the measured vs predicted sphere growth at one
// node for experiment E5.
type ExpansionReport struct {
	Node      int
	Radius    int
	Measured  []int     // |B_t(v)|
	Predicted []float64 // (Δ-1)^(t/2) per Lemma 15 (degree-Δ, DCC-free case)
	Satisfied bool      // measured >= predicted at every even level
}

// MeasureExpansion evaluates Lemma 15's bound at v: if within radius r
// there is no DCC and all nodes have degree Δ, then |B_t(v)| >= (Δ-1)^(t/2)
// for even t. The caller is responsible for the precondition; Satisfied
// simply records whether the inequality holds.
func MeasureExpansion(g *graph.G, v, r, delta int) ExpansionReport {
	rep := ExpansionReport{Node: v, Radius: r}
	rep.Measured = SphereSizes(g, v, r)
	rep.Predicted = make([]float64, r+1)
	rep.Satisfied = true
	for t := 0; t <= r; t++ {
		if t%2 == 0 {
			rep.Predicted[t] = pow(float64(delta-1), t/2)
			if float64(rep.Measured[t]) < rep.Predicted[t] {
				rep.Satisfied = false
			}
		}
	}
	return rep
}

// HasDCCFreeBall reports whether the radius-r ball around v contains no DCC
// of radius <= r anchored at any of its nodes. Exhaustive (runs the DCC
// search at each ball node); intended for experiment preconditions on
// small graphs.
func HasDCCFreeBall(g *graph.G, v, r int) bool {
	f := NewFinder(g)
	for _, u := range g.Ball(v, r) {
		if f.find(u, r) != nil {
			return false
		}
	}
	return true
}

// MinDegreeWithin returns the minimum degree among nodes within distance r
// of v (the Lemma 12/15 preconditions constrain degrees in the ball).
func MinDegreeWithin(g *graph.G, v, r int) int {
	minDeg := -1
	for _, u := range g.Ball(v, r) {
		if minDeg < 0 || g.Deg(u) < minDeg {
			minDeg = g.Deg(u)
		}
	}
	return minDeg
}

func pow(b float64, e int) float64 {
	out := 1.0
	for i := 0; i < e; i++ {
		out *= b
	}
	return out
}
