package core

import (
	"errors"
	"fmt"

	"deltacolor/graph"
	"deltacolor/internal/brooks"
	"deltacolor/internal/dist"
	"deltacolor/local"
)

// Precondition errors shared by all Δ-coloring entry points.
var (
	// ErrComplete: the graph is a clique; by Brooks' theorem it has no
	// Δ-coloring.
	ErrComplete = errors.New("graph is a complete graph (not Δ-colorable)")
	// ErrOddCycle: the graph is an odd cycle (Δ = 2, chromatic number 3).
	ErrOddCycle = errors.New("graph is an odd cycle (not Δ-colorable)")
	// ErrDegreeTooSmall: Δ <= 2 (paths/cycles need Ω(n) rounds even when
	// 2-colorable; the theorems require Δ >= 3).
	ErrDegreeTooSmall = errors.New("maximum degree must be at least 3")
	// ErrNotNice: some component of the graph is a path, cycle or clique.
	// Disconnected inputs are accepted when every component is nice.
	ErrNotNice = errors.New("graph is a path, cycle or clique (not a nice graph)")
)

// CheckNice validates the theorems' preconditions: Δ >= minDelta and the
// graph is nice (not a path, cycle or clique). Disconnected inputs are
// accepted when every component is nice; the coloring is computed on all
// components simultaneously (the LOCAL model does this for free).
func CheckNice(g *graph.G, minDelta int) (int, error) {
	delta := g.MaxDegree()
	if delta < minDelta || delta < 3 {
		return delta, fmt.Errorf("Δ=%d: %w", delta, ErrDegreeTooSmall)
	}
	comp, count := g.ConnectedComponents()
	byComp := make([][]int, count)
	for v, c := range comp {
		byComp[c] = append(byComp[c], v)
	}
	for _, nodes := range byComp {
		sub, _, err := g.InducedSubgraph(nodes)
		if err != nil {
			return delta, err
		}
		if sub.IsClique() && sub.N() == delta+1 {
			return delta, ErrComplete
		}
		if !sub.IsNice() {
			return delta, ErrNotNice
		}
	}
	return delta, nil
}

// Result is the outcome of a Δ-coloring run.
type Result struct {
	Colors  []int
	Delta   int
	Rounds  int
	Phases  []local.PhaseStat
	Repairs int // nodes completed by the Brooks safety net
	// RepairBatches counts the batch iterations the Brooks repair engine
	// ran (across every engine invocation of the algorithm); 0 when no
	// repairs were needed. RepairBatchRounds is the per-batch charged
	// rounds histogram (scheduling + execution), concatenated in
	// invocation order.
	RepairBatches     int
	RepairBatchRounds []int
	// Span is the run's nested timeline (pipeline → phase → primitive),
	// collected only when a default tracer is installed
	// (local.SetDefaultTracer); nil otherwise.
	Span *local.Span
}

// startSpans opens span collection on acct when a process-wide tracer is
// installed, returning it (possibly nil) for the closing finishSpans.
func startSpans(acct *local.Accountant, pipeline string) *local.Tracer {
	tr := local.DefaultTracer()
	if tr != nil {
		acct.StartSpans(pipeline, tr)
	}
	return tr
}

// addRepairStats folds one batched-repair run into the result's stats.
func (r *Result) addRepairStats(res *brooks.BatchResult) {
	r.RepairBatches += len(res.Batches)
	r.RepairBatchRounds = append(r.RepairBatchRounds, res.BatchRounds()...)
}

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
// Round complexity with our substitutions: O(Δ²·log²n) — the paper's
// O(√Δ log^1.5Δ · log²n) with the Δ-dependence of our simpler list-coloring
// subroutine; the log²n growth in n is the quantity experiment E3 checks.
func Deterministic(g *graph.G, seed int64) (*Result, error) {
	delta, err := CheckNice(g, 3)
	if err != nil {
		return nil, err
	}
	acct := &local.Accountant{}
	startSpans(acct, "deterministic")
	n := g.N()

	// R: B0 members must be far enough apart that Brooks recolorings
	// (search radius rB, touched radius <= 3·rB) do not interact.
	rB := brooks.SearchRadius(n, delta)
	bigR := 6*rB + 3

	acct.Begin("decompose")
	rs := DetRulingSetCompute(g, nil, bigR)
	acct.Charge("ruling-set", rs.Rounds)

	var base []int
	for v := 0; v < n; v++ {
		if rs.InSet[v] {
			base = append(base, v)
		}
	}
	layer := Layering(g, base, nil)
	s := 0
	for _, l := range layer {
		if l > s {
			s = l
		}
	}
	acct.Charge("layering", s)
	acct.End()

	colors := make([]int, n)
	for v := range colors {
		colors[v] = -1
	}
	lc := NewLayerColorer(g, delta, ListColorDeterministic, seed, acct)
	repairs, err := lc.ColorLayersReverse(colors, layer, s, "layers")
	if err != nil {
		return nil, err
	}

	// Color B0 via Theorem 5 through the batch engine: the ruling-set
	// spacing guarantees disjoint recoloring balls, so the engine schedules
	// every B0 repair into one batch charged max rounds — the same
	// accounting the old hand-rolled loop used, now with the independence
	// verified instead of assumed.
	b0res, err := brooks.RepairInSpan(acct, "brooks-B0", "brooks-B0", g, colors, base, delta, seed+0xb0)
	if err != nil {
		return nil, fmt.Errorf("deterministic: color B0: %w", err)
	}

	rres, err := RepairUncolored(g, colors, delta, seed+0x4e9, acct)
	if err != nil {
		return nil, fmt.Errorf("deterministic: %w", err)
	}
	repairs += rres.Fixed

	if err := dist.VerifyColoring(g, colors); err != nil {
		return nil, fmt.Errorf("deterministic: %w", err)
	}
	out := &Result{
		Colors:  colors,
		Delta:   delta,
		Rounds:  acct.Total(),
		Phases:  acct.Phases(),
		Repairs: repairs,
	}
	out.addRepairStats(b0res)
	out.addRepairStats(rres)
	out.Span = acct.FinishSpans()
	return out, nil
}
