// Package deltacolor is the public API of this repository: distributed
// Δ-coloring in the LOCAL model, reproducing "Improved Distributed
// Δ-Coloring" (Ghaffari, Hirvonen, Kuhn, Maus; PODC 2018).
//
// A Δ-coloring is a proper vertex coloring using only Δ = maxdeg(G) colors.
// By Brooks' theorem every connected graph that is neither a clique nor an
// odd cycle admits one; this package computes it with simulated LOCAL-model
// algorithms and reports the number of communication rounds consumed, the
// quantity the paper's theorems bound:
//
//   - Algorithm AlgRandomized (Theorems 1 and 3): DCC removal, random
//     T-node shattering, layered list colorings. O((log log n)²) rounds for
//     constant Δ; O(log Δ) + shattering for Δ >= 4.
//   - Algorithm AlgDeterministic (Theorem 4): ruling-set layering with
//     Brooks recolorings of the base layer. O(Δ·log² n + Δ²) rounds with
//     this repository's substituted subroutines.
//   - Algorithm AlgBaseline: the Panconesi–Srinivasan-style comparator the
//     paper improves on.
//
// Quickstart:
//
//	g := gen.MustRandomRegular(rand.New(rand.NewSource(1)), 1<<10, 4)
//	res, err := deltacolor.Color(g, deltacolor.Options{Seed: 1})
//	// res.Colors is a proper coloring with colors in [0, 4).
package deltacolor

import (
	"errors"
	"fmt"

	"deltacolor/graph"
	"deltacolor/internal/baseline"
	"deltacolor/internal/core"
	"deltacolor/local"
)

// Algorithm selects the coloring algorithm.
type Algorithm int

const (
	// AlgAuto picks per the paper's theorem preconditions: the small-Δ
	// randomized version for Δ <= 5, the large-Δ version otherwise.
	AlgAuto Algorithm = iota + 1
	// AlgRandomized is the Section 4 randomized algorithm (Theorems 1/3).
	AlgRandomized
	// AlgDeterministic is the Theorem 4 deterministic algorithm.
	AlgDeterministic
	// AlgBaseline is the Panconesi–Srinivasan-style baseline.
	AlgBaseline
	// AlgNetDec is the Theorem 21 deterministic variant that rides on a
	// network decomposition instead of the AGLP ruling-set recursion.
	AlgNetDec
)

func (a Algorithm) String() string {
	switch a {
	case AlgAuto:
		return "auto"
	case AlgRandomized:
		return "randomized"
	case AlgDeterministic:
		return "deterministic"
	case AlgBaseline:
		return "baseline"
	case AlgNetDec:
		return "netdec"
	default:
		return fmt.Sprintf("algorithm(%d)", int(a))
	}
}

// Options configures Color. The randomized algorithm runs with the
// paper's parameters (core.RandOptions.AutoParams).
type Options struct {
	Algorithm Algorithm // default AlgAuto
	Seed      int64
}

// PhaseStat re-exports the per-phase round accounting.
type PhaseStat = local.PhaseStat

// Result is a completed Δ-coloring with its LOCAL round cost.
type Result struct {
	Colors    []int
	Delta     int
	Rounds    int
	Phases    []PhaseStat
	Repairs   int // nodes left to Brooks repairs: the holes the safety net found (at most n), or the baseline's stuck nodes
	Algorithm Algorithm

	// RepairBatches is the number of batches the Brooks repair engine ran
	// (repairs with pairwise-independent balls share a batch and are
	// charged max rounds, not the sum; see internal/brooks.RepairHoles).
	// Zero when no repairs were needed.
	RepairBatches int
	// RepairBatchRounds is the per-batch charged rounds histogram
	// (scheduling + execution per batch), in execution order across every
	// engine invocation of the run. len(RepairBatchRounds) == RepairBatches.
	RepairBatchRounds []int

	// Span is the run's nested timeline (pipeline → phase → primitive),
	// collected only when a tracer is installed process-wide with
	// local.SetDefaultTracer before the Color call; nil otherwise. Export
	// it with local.WriteChromeTrace / local.WriteTraceJSONL via
	// Tracer.Dump.
	Span *local.Span
}

// Errors re-exported for matching with errors.Is.
var (
	ErrComplete       = core.ErrComplete
	ErrDegreeTooSmall = core.ErrDegreeTooSmall
	ErrNotNice        = core.ErrNotNice
)

// ErrBadOptions is the sentinel option errors wrap (an unknown
// Algorithm); match with errors.Is(err, ErrBadOptions).
var ErrBadOptions = errors.New("invalid options")

// OptionError reports a single invalid Options field. It wraps
// ErrBadOptions for errors.Is matching.
type OptionError struct {
	Field  string
	Value  any
	Reason string
}

func (e *OptionError) Error() string {
	return fmt.Sprintf("deltacolor: invalid option %s = %v: %s", e.Field, e.Value, e.Reason)
}

func (e *OptionError) Unwrap() error { return ErrBadOptions }

// Color computes a Δ-coloring of g. The graph must be "nice" per the
// paper: every connected component is neither a path, a cycle, nor a
// clique, and Δ >= 3 (otherwise a typed error is returned).
func Color(g *graph.G, opts Options) (*Result, error) {
	alg := opts.algorithm()
	var res *core.Result
	var err error
	switch alg {
	case AlgRandomized:
		res, err = core.Randomized(g, core.RandOptions{Seed: opts.Seed})
	case AlgDeterministic:
		res, err = core.Deterministic(g, opts.Seed)
	case AlgNetDec:
		res, err = core.DeterministicNetDec(g, opts.Seed)
	case AlgBaseline:
		res, err = baseline.Color(g, opts.Seed)
	default:
		return nil, &OptionError{Field: "Algorithm", Value: alg, Reason: "unknown algorithm"}
	}
	if err != nil {
		return nil, err
	}
	return newResult(res, alg), nil
}

// algorithm is the algorithm Color runs for o: AlgAuto (and the zero
// value) resolve to AlgRandomized.
func (o Options) algorithm() Algorithm {
	if o.Algorithm == 0 || o.Algorithm == AlgAuto {
		return AlgRandomized
	}
	return o.Algorithm
}

// newResult is the public form of a pipeline's result.
func newResult(res *core.Result, alg Algorithm) *Result {
	return &Result{
		Colors:            res.Colors,
		Delta:             res.Delta,
		Rounds:            res.Rounds,
		Phases:            res.Phases,
		Repairs:           res.Repairs,
		Algorithm:         alg,
		RepairBatches:     res.RepairBatches,
		RepairBatchRounds: res.RepairBatchRounds,
		Span:              res.Span,
	}
}
