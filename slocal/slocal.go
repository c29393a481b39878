// Package slocal implements the SLOCAL model (sequential LOCAL, [GKM17]),
// which Remark 17 of the paper invokes: nodes are processed one at a time
// in an adversarial order; when processed, a node reads everything within
// its locality radius — including the outputs already written by earlier
// nodes — and irrevocably writes its own output.
//
// Theorem 5 (distributed Brooks) yields an SLOCAL(O(log_Δ n)) algorithm
// for Δ-coloring: process nodes in any order; each node greedily takes a
// free color, and when none exists it runs the Brooks token walk inside
// its O(log_Δ n)-ball, recoloring only nodes inside the ball. DeltaColor
// implements exactly that; Run is the generic executor that measures the
// locality any SLOCAL algorithm actually used.
package slocal

import (
	"fmt"

	"deltacolor/graph"
	"deltacolor/internal/brooks"
	"deltacolor/verify"
)

// State is the view handed to a node being processed: the graph, the
// per-node outputs written so far (nil for unwritten), and the processed
// node's ID. Output writes go through Write, which enforces the locality
// radius the algorithm declared.
type State struct {
	G      *graph.G
	Center int
	radius int
	outs   []any
	// touched collects the max distance from Center at which this step
	// read or wrote.
	touched int
	// dist holds Center's BFS distances up to radius, computed on the
	// first access beyond Center and its neighbors.
	dist []int
}

// Read returns node v's output (nil if not yet written), charging the
// distance from the processed node.
func (s *State) Read(v int) any {
	s.charge(v)
	return s.outs[v]
}

// Write sets node v's output, charging the distance. SLOCAL algorithms
// may rewrite outputs inside their ball (that is what makes Δ-coloring
// expressible); writes beyond the declared radius panic.
func (s *State) Write(v int, out any) {
	s.charge(v)
	s.outs[v] = out
}

func (s *State) charge(v int) {
	d := s.distTo(v)
	if d < 0 {
		panic(fmt.Sprintf("slocal: node %d touched %d outside its radius-%d ball", s.Center, v, s.radius))
	}
	if d > s.touched {
		s.touched = d
	}
}

// distTo returns v's distance from Center, or -1 beyond the radius. The
// center and its neighbors need no BFS; anything farther reads the one
// BFS of the step.
func (s *State) distTo(v int) int {
	switch {
	case v == s.Center:
		return 0
	case s.radius >= 1 && s.G.HasEdge(s.Center, v):
		return 1
	}
	if s.dist == nil {
		s.dist = s.G.BFSLimited(s.Center, s.radius).Dist
	}
	if d := s.dist[v]; d <= s.radius {
		return d
	}
	return -1
}

// Result reports an SLOCAL execution.
type Result struct {
	Outputs []any
	// MaxLocality is the largest radius any node actually touched; the
	// SLOCAL complexity of the run.
	MaxLocality int
}

// Run executes an SLOCAL algorithm: for each node in order (every node
// exactly once), step is called with a State allowing reads/writes within
// the declared radius. Returns the outputs and the measured locality.
func Run(g *graph.G, order []int, radius int, step func(*State)) (*Result, error) {
	if len(order) != g.N() {
		return nil, fmt.Errorf("slocal: order has %d entries for %d nodes", len(order), g.N())
	}
	seen := make([]bool, g.N())
	for _, v := range order {
		if v < 0 || v >= g.N() || seen[v] {
			return nil, fmt.Errorf("slocal: order is not a permutation (node %d)", v)
		}
		seen[v] = true
	}
	outs := make([]any, g.N())
	maxLoc := 0
	for _, v := range order {
		st := &State{G: g, Center: v, radius: radius, outs: outs}
		step(st)
		if st.touched > maxLoc {
			maxLoc = st.touched
		}
	}
	return &Result{Outputs: outs, MaxLocality: maxLoc}, nil
}

// DeltaColor runs the Remark 17 SLOCAL Δ-coloring: greedy where possible,
// Brooks token walk inside the ball otherwise. The order is adversarial —
// any permutation yields a valid Δ-coloring with locality O(log_Δ n).
//
// The int-typed mirror of the outputs (the partial coloring the Brooks
// engine repairs against) is maintained incrementally: each step updates
// only the entries it writes — O(changed) bookkeeping instead of the old
// O(n) rebuild before every repair. TestDeltaColorMatchesRebuildPath pins
// the outputs byte-identical to the rebuild-per-step implementation.
func DeltaColor(g *graph.G, order []int) (colors []int, locality int, err error) {
	delta := g.MaxDegree()
	if delta < 3 {
		return nil, 0, fmt.Errorf("slocal: Δ=%d < 3", delta)
	}
	radius := 3*brooks.SearchRadius(g.N(), delta) + 1

	// partial mirrors the int outputs written so far (-1 = unwritten) and
	// is kept in sync with every Write below.
	partial := make([]int, g.N())
	for u := range partial {
		partial[u] = -1
	}

	res, err := Run(g, order, radius, func(s *State) {
		v := s.Center
		// Greedy: find a free color against already-written neighbors.
		used := make([]bool, delta)
		for _, u := range s.G.Neighbors(v) {
			if c, ok := s.Read(u).(int); ok {
				used[c] = true
			}
		}
		for c := 0; c < delta; c++ {
			if !used[c] {
				s.Write(v, c)
				partial[v] = c
				return
			}
		}
		// Stuck: run the batched Brooks engine on the current partial
		// coloring with v as the only requested hole (a single repair
		// needs no MIS; the engine degenerates to one FixOne walk). The
		// engine mutates partial in place and reports exactly the nodes it
		// changed, so the SLOCAL outputs are updated in O(changed).
		fix, err := brooks.RepairHoles(s.G, partial, []int{v}, delta, int64(v))
		if err != nil {
			panic(fmt.Sprintf("slocal: brooks at %d: %v", v, err))
		}
		for _, u := range fix.Changed {
			s.Write(u, partial[u])
		}
	})
	if err != nil {
		return nil, 0, err
	}

	colors = make([]int, g.N())
	for v := range colors {
		c, ok := res.Outputs[v].(int)
		if !ok {
			return nil, 0, fmt.Errorf("slocal: node %d left uncolored", v)
		}
		colors[v] = c
	}
	if err := verify.DeltaColoring(g, colors, delta); err != nil {
		return nil, 0, err
	}
	return colors, res.MaxLocality, nil
}
