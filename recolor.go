// Self-healing recoloring: detect the conflict set a fault or a graph
// mutation left behind, uncolor it into holes, and drive the batched
// Brooks repair engine instead of recoloring from scratch.
//
// This is the recovery half of the fault-injection tentpole (local/
// fault.go is the damage half) and the incremental path of the ROADMAP's
// coloring-as-a-service item: after edge/node churn (local.Network
// AddEdge/RemoveEdge/AddNode) or a run under a FaultPlan, Recolor
// restores a verified Δ-coloring by recoloring only inside the
// conflicts' repair balls, while ColorUnderFaults packages the whole "run
// under faults, detect, repair, verify" loop for any pipeline.
package deltacolor

import (
	"errors"
	"fmt"

	"deltacolor/graph"
	"deltacolor/internal/brooks"
	"deltacolor/internal/core"
	"deltacolor/local"
	"deltacolor/verify"
)

// ErrUnrecoverable is the sentinel every recovery failure wraps: the
// repair engine could not restore a coloring that passes verification.
// Match with errors.Is; the concrete *UnrecoverableError carries the
// residual conflict set.
var ErrUnrecoverable = errors.New("unrecoverable coloring")

// UnrecoverableError reports a recovery that could not restore a valid
// Δ-coloring — never a panic, never a silently bad coloring. Residual
// holds the nodes still uncolored or in conflict when repair gave up.
type UnrecoverableError struct {
	Residual []int // conflict set that remains (external node IDs, ascending)
	Reason   error // what stopped recovery
}

func (e *UnrecoverableError) Error() string {
	return fmt.Sprintf("deltacolor: unrecoverable: %d node(s) in residual conflict set: %v", len(e.Residual), e.Reason)
}

// Unwrap exposes both the ErrUnrecoverable sentinel and the underlying
// reason to errors.Is / errors.As.
func (e *UnrecoverableError) Unwrap() []error { return []error{ErrUnrecoverable, e.Reason} }

// RecolorStats summarizes one Recolor pass.
type RecolorStats struct {
	Conflicts     int // nodes uncolored into holes (pre-existing holes included)
	Repaired      int // holes completed by their own repair procedure
	Changed       int // nodes whose color the repair engine touched
	RepairBatches int // scheduling batches the engine ran
	RepairRounds  int // charged LOCAL rounds (scheduling + execution, max-not-sum)
}

// ConflictSet returns the deterministic set of nodes that must be
// uncolored to make the remaining coloring a proper partial Δ-coloring:
// every node whose color is missing or out of range, plus — for each
// monochromatic edge whose endpoints are both still in range — the
// higher-ID endpoint. Uncoloring the returned set always yields a proper
// partial coloring (each bad edge loses at least one endpoint, and marks
// only accumulate), and the rule is a pure function of (g, colors), so
// detection is reproducible. Ascending order.
func ConflictSet(g *graph.G, colors []int, delta int) []int {
	n := g.N()
	marked := make([]bool, n)
	for v := 0; v < n && v < len(colors); v++ {
		if colors[v] < 0 || colors[v] >= delta {
			marked[v] = true
		}
	}
	for v := 0; v < n; v++ {
		if marked[v] {
			continue
		}
		for _, u := range g.Neighbors(v) {
			if u > v && !marked[u] && colors[u] == colors[v] {
				marked[u] = true
			}
		}
	}
	var bad []int
	for v := 0; v < n; v++ {
		if marked[v] {
			bad = append(bad, v)
		}
	}
	return bad
}

// Recolor restores a verified Δ-coloring after faults or churn, mutating
// colors in place. It scans the conflict set, uncolors it into holes,
// feeds them to the batched Brooks repair engine (internal/brooks), and
// verifies the result — the incremental alternative to calling Color on
// the mutated graph from scratch (experiment E16 measures the gap).
// Detection and verification each scan the whole graph, O(n + m). Repair
// costs each repair's ball: O(deg) for a conflict that still has a free
// color, but a stuck conflict's walk can reach radius 8–10 on a random
// 4-regular graph, most of it at n = 2048. Stuck conflicts with
// overlapping balls repair one per batch, and every batch reruns the
// repairs still waiting.
//
// colors must have exactly one entry per node of g; after AddNode churn,
// append -1 entries for the new nodes first. delta is the color budget
// (typically MaxDegree of the mutated graph; it may exceed the original
// Δ after insertions). The process-wide default FaultPlan is detached
// while repair runs — the repair engine's internal networks must not
// inherit the plan that caused the damage — and restored afterwards.
//
// On failure the returned error wraps ErrUnrecoverable and carries the
// residual conflict set; colors then holds the partial state repair
// reached (holes are -1), never a silently improper coloring.
func Recolor(g *graph.G, colors []int, delta int, seed int64) (*RecolorStats, error) {
	if len(colors) != g.N() {
		return nil, fmt.Errorf("deltacolor: Recolor: %d colors for %d nodes (append -1 entries for added nodes)", len(colors), g.N())
	}
	if prev := local.DefaultFaultPlan(); prev != nil {
		_ = local.SetDefaultFaultPlan(nil)
		defer func() { _ = local.SetDefaultFaultPlan(prev) }()
	}
	conflicts := ConflictSet(g, colors, delta)
	for _, v := range conflicts {
		colors[v] = -1
	}
	stats := &RecolorStats{Conflicts: len(conflicts)}
	if len(conflicts) > 0 {
		res, err := brooks.RepairHoles(g, colors, conflicts, delta, seed)
		if err != nil {
			return stats, &UnrecoverableError{Residual: ConflictSet(g, colors, delta), Reason: err}
		}
		stats.Repaired = res.Fixed
		stats.Changed = len(res.Changed)
		stats.RepairBatches = len(res.Batches)
		stats.RepairRounds = res.TotalRounds()
	}
	if err := verify.DeltaColoring(g, colors, delta); err != nil {
		return stats, &UnrecoverableError{Residual: ConflictSet(g, colors, delta), Reason: err}
	}
	return stats, nil
}

// ColorUnderFaults runs a full pipeline with the given FaultPlan
// injected into every network it builds, then detects, repairs and
// verifies the damage: the "run under FaultPlan, detect, repair,
// verify" mode of every pipeline. The plan is installed as the process
// default for the duration of the Color call (so the pipeline's internal
// networks all inherit it) and the previous default is restored before
// repair runs.
//
// A pipeline that reaches a coloring hands it to Recolor even when the
// pipeline could not complete it: when one of its Brooks repairs fails
// (the safety net included) or its final check does, the error carries
// the run's partial Result (*core.PartialError), which then holds the
// pipeline's rounds and phases, and its Colors the repaired coloring.
//
// The contract is all-or-typed-error: on nil error the returned
// Result.Colors passes verify.DeltaColoring; every fault-induced failure
// — any other error in the middle of a pipeline, a pipeline panic on
// fault-mangled state, or a Recolor that cannot converge — returns an
// error wrapping ErrUnrecoverable. Precondition errors (ErrBadOptions,
// ErrNotNice, ErrComplete, ErrDegreeTooSmall) are not fault-induced and
// pass through unwrapped.
//
// Determinism: same graph, same Options, same plan ⇒ byte-identical
// colors, rounds and repair stats, independent of worker count.
func ColorUnderFaults(g *graph.G, opts Options, plan *local.FaultPlan) (*Result, *RecolorStats, error) {
	prev := local.DefaultFaultPlan()
	if plan != nil {
		if err := local.SetDefaultFaultPlan(plan); err != nil {
			return nil, nil, err
		}
	}
	res, runErr := colorRecovering(g, opts)
	_ = local.SetDefaultFaultPlan(prev)
	var partial *core.PartialError
	switch {
	case runErr == nil:
	case errors.As(runErr, &partial):
		res = newResult(partial.Result, opts.algorithm())
	case isStructuralErr(runErr):
		return nil, nil, runErr
	default:
		return nil, nil, &UnrecoverableError{Reason: runErr}
	}
	stats, err := Recolor(g, res.Colors, res.Delta, opts.Seed^0x5eed_c0de)
	if err != nil {
		return res, stats, err
	}
	return res, stats, nil
}

// colorRecovering is Color with panic containment. Engine outputs cut
// by a RoundLimit are typed "no output" values (-1 colors, false MIS
// flags), never nils, but a pipeline's central code still runs on the
// partial state they leave (a partial layering, a truncated schedule),
// and any slip there must surface as a recoverable error, not kill the
// process.
func colorRecovering(g *graph.G, opts Options) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("pipeline panicked under faults: %v", r)
		}
	}()
	return Color(g, opts)
}

// isStructuralErr reports whether err is a precondition failure the
// caller must fix — unrelated to injected faults.
func isStructuralErr(err error) bool {
	for _, s := range []error{ErrBadOptions, ErrNotNice, ErrComplete, ErrDegreeTooSmall} {
		if errors.Is(err, s) {
			return true
		}
	}
	return false
}
