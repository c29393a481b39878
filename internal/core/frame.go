package core

import (
	"errors"
	"fmt"

	"deltacolor/graph"
	"deltacolor/internal/brooks"
	"deltacolor/local"
	"deltacolor/verify"
)

// Precondition errors shared by all Δ-coloring entry points.
var (
	// ErrComplete: the graph is a clique; by Brooks' theorem it has no
	// Δ-coloring.
	ErrComplete = errors.New("graph is a complete graph (not Δ-colorable)")
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
//
// Components are judged in component order from their node count and
// degree range alone, with no copy: a connected graph of k nodes is a
// clique when its minimum degree is k-1, and a path or a cycle when its
// maximum degree is at most 2. The first bad component decides the error:
// ErrComplete for a (Δ+1)-clique, ErrNotNice otherwise.
func CheckNice(g *graph.G, minDelta int) (int, error) {
	delta := g.MaxDegree()
	if delta < minDelta || delta < 3 {
		return delta, fmt.Errorf("Δ=%d: %w", delta, ErrDegreeTooSmall)
	}
	comp, count := g.ConnectedComponents()
	type compStat struct{ nodes, minDeg, maxDeg int }
	stats := make([]compStat, count)
	for v, c := range comp {
		d, s := g.Deg(v), &stats[c]
		if s.nodes == 0 || d < s.minDeg {
			s.minDeg = d
		}
		s.maxDeg = max(s.maxDeg, d)
		s.nodes++
	}
	for _, s := range stats {
		if s.minDeg == s.nodes-1 {
			if s.nodes == delta+1 {
				return delta, ErrComplete
			}
			return delta, ErrNotNice
		}
		if s.maxDeg <= 2 {
			return delta, ErrNotNice
		}
	}
	return delta, nil
}

// Result is the outcome of a Δ-coloring run.
type Result struct {
	Colors []int
	Delta  int
	Rounds int
	Phases []local.PhaseStat
	// Repairs counts the nodes the pipeline left to Brooks repairs: the
	// holes the safety net found (Frame.SafetyNet), or the baseline's
	// stuck nodes completed by its token walks.
	Repairs int
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

// Frame is the part every pipeline shares: Start checks the input and
// opens the accounting, Repair runs the batched Brooks repairs, SafetyNet
// repairs whatever the pipeline left uncolored, Finish checks the
// coloring and assembles the Result, and Fail turns any error after Start
// into one that carries the Result so far. Between them the pipeline
// colors Colors (-1 = uncolored) and charges its rounds to Acct. A Frame
// belongs to one run of one pipeline.
type Frame struct {
	Delta  int
	Colors []int
	Acct   *local.Accountant

	g           *graph.G
	name        string
	batchRounds []int // per-batch charged rounds of every Repair, in order
}

// Start opens a run of the pipeline called name on g: it checks the
// theorems' preconditions (CheckNice; the typed errors pass through
// unwrapped), opens the accountant, with spans under name when a
// process-wide tracer is installed, and starts every node uncolored.
func Start(g *graph.G, name string) (*Frame, error) {
	delta, err := CheckNice(g, 3)
	if err != nil {
		return nil, err
	}
	f := &Frame{Delta: delta, Colors: make([]int, g.N()), Acct: &local.Accountant{}, g: g, name: name}
	for v := range f.Colors {
		f.Colors[v] = -1
	}
	if tr := local.DefaultTracer(); tr != nil {
		f.Acct.StartSpans(name, tr)
	}
	return f, nil
}

// Repair completes holes with the batched distributed Brooks engine
// (Theorem 5 walks scheduled by an MIS over their repair balls,
// brooks.RepairHoles) inside a span named span, which is open while the
// repair runs, so its wall time and engine rounds land in the phase that
// bills them. Each batch is charged as it completes, as
// "<prefix>-sched[i]" (when it needed scheduling) and "<prefix>-batch[i]",
// so its leaf spans hold its own time and engine rounds, and it is folded
// into the result. When the repair fails, the batches it ran are charged
// all the same, and the error is a *PartialError whose Result counts the
// holes as its Repairs.
func (f *Frame) Repair(span, prefix string, holes []int, seed int64) error {
	f.Acct.Begin(span)
	res, err := brooks.RepairHolesFunc(f.g, f.Colors, holes, f.Delta, seed, func(i int, b brooks.BatchInfo) {
		if b.SchedRounds > 0 {
			f.Acct.Charge(fmt.Sprintf("%s-sched[%d]", prefix, i), b.SchedRounds)
		}
		f.Acct.Charge(fmt.Sprintf("%s-batch[%d]", prefix, i), b.Rounds)
	})
	f.Acct.End()
	f.batchRounds = append(f.batchRounds, res.BatchRounds()...)
	if err != nil {
		return f.Fail(len(holes), fmt.Errorf("%s: %w", span, err))
	}
	return nil
}

// SafetyNet repairs every node that is still uncolored (span and prefix
// "repair") and returns how many there were: the pipeline's Repairs. It
// makes every pipeline total on nice inputs, whatever its probabilistic
// or fault-hit phases left behind.
func (f *Frame) SafetyNet(seed int64) (int, error) {
	holes := brooks.Holes(f.Colors)
	return len(holes), f.Repair("repair", "repair", holes, seed)
}

// PartialError is the error of a run that failed after Start: a failed
// repair (Repair, SafetyNet), a failed final check (Finish) or any other
// error a pipeline hands to Fail. Result is the run as the pipeline left
// it, spans closed, with Colors the partial or failing coloring, so a
// caller can repair it instead of starting over.
type PartialError struct {
	Result *Result
	Err    error // the pipeline's name and what failed
}

func (e *PartialError) Error() string { return e.Err.Error() }

func (e *PartialError) Unwrap() error { return e.Err }

// Finish checks that Colors is a Δ-coloring (total, proper, every color
// below Δ) and returns the Result, with repairs as its Repairs count and
// the spans closed. When the check fails, the error is Fail's.
func (f *Frame) Finish(repairs int) (*Result, error) {
	if err := verify.DeltaColoring(f.g, f.Colors, f.Delta); err != nil {
		return nil, f.Fail(repairs, err)
	}
	return f.result(repairs), nil
}

// Fail is the error of a run that fails after Start: a *PartialError
// whose Result is the run so far, with repairs as its Repairs count and
// the spans closed, and whose text is the pipeline's name and err.
func (f *Frame) Fail(repairs int, err error) error {
	return &PartialError{Result: f.result(repairs), Err: fmt.Errorf("%s: %w", f.name, err)}
}

// result assembles the run's Result so far and closes its spans.
func (f *Frame) result(repairs int) *Result {
	return &Result{
		Colors:            f.Colors,
		Delta:             f.Delta,
		Rounds:            f.Acct.Total(),
		Phases:            f.Acct.Phases(),
		Repairs:           repairs,
		RepairBatches:     len(f.batchRounds),
		RepairBatchRounds: f.batchRounds,
		Span:              f.Acct.FinishSpans(),
	}
}
