// Batched distributed Brooks repairs.
//
// Every composite algorithm in this repository ends in the Brooks safety
// net, and until PR 4 that net ran FixOne centrally one hole at a time,
// charging the *sum* of the walks' rounds. But repair scheduling is
// naturally an MIS problem over repair balls (Bourreau–Brandt–Nolin,
// "Faster Distributed Δ-Coloring via a Reduction to MIS"): two token-walk
// repairs whose balls are disjoint and non-adjacent read and write disjoint
// regions of the graph, so they commute and can run in the same LOCAL
// rounds. The engine below collects all holes, schedules a maximal set of
// pairwise-independent repairs with dist.LubyMIS over a
// local.QuotientNetwork of the balls, executes that whole batch in one
// pass charged max-not-sum, and loops until no holes remain.
//
// Ball radius. A node running the token procedure blind would have to
// reserve the a-priori bound 2·SearchRadius+1 (the walk reaches distance
// <= SearchRadius and a DCC recoloring extends it); at any feasible scale
// that ball covers the whole graph and the conflict quotient degenerates
// to a clique. The walk, however, is deterministic given the colors it
// reads, so the engine runs it optimistically first (against the current
// snapshot) and schedules by the ball of the *realized* radius
// R_v = Result.Radius: a repair reads colors only inside B(v, R_v+1) and
// writes only inside B(v, R_v) (pinned by TestFixOneTouchWithinRadius), so
// two repairs commute exactly when their realized balls are disjoint and
// non-adjacent — which is exactly non-adjacency in the quotient graph.
// Repairs whose balls conflict are deferred to a later batch and re-run
// against the then-current colors, so their snapshots are never stale.
package brooks

import (
	"fmt"
	"sort"

	"deltacolor/graph"
	"deltacolor/internal/dist"
	"deltacolor/local"
)

// BatchInfo reports one batch of pairwise-independent repairs.
type BatchInfo struct {
	// Size is the number of repairs executed in this batch.
	Size int
	// Rounds is the charged execution cost: the max FixOne rounds over the
	// batch's repairs (they run in parallel), not the sum.
	Rounds int
	// SchedRounds is the charged scheduling cost: one ball-exchange pass
	// plus the LubyMIS run over the conflict quotient, each virtual round
	// costing a ball diameter. Zero when the batch had a single candidate
	// (nothing to schedule against).
	SchedRounds int
	// MaxRadius is the largest realized repair-ball radius among the
	// batch's candidates (the quantity the scheduling cost scales with).
	MaxRadius int
}

// BatchResult is the outcome of a batched repair run.
type BatchResult struct {
	// Fixed counts the repairs executed (holes completed by their own
	// token procedure; holes swallowed by another repair's DCC or fallback
	// recoloring are completed as a side effect and not counted here,
	// matching the sequential engine's accounting).
	Fixed int
	// Changed lists every node whose color the engine changed, in
	// application order. A fault-free batch lists each node at most once;
	// under an installed FaultPlan the scheduling MIS can choose
	// overlapping balls, and a node the batch changes twice is listed
	// twice. Callers that mirror colors elsewhere (slocal) update
	// O(|Changed|) entries instead of rescanning all n nodes.
	Changed []int
	// Batches describes each scheduling round.
	Batches []BatchInfo
	// SummedRounds is the counterfactual pre-batching charge: the sum of
	// the executed repairs' individual rounds, what the sequential safety
	// net used to bill. TotalRounds() < SummedRounds whenever a batch
	// holds more than one repair and walks are nontrivial; experiment E13
	// and TestRepairBatchedVsSummedAccounting track the gap.
	SummedRounds int
}

// TotalRounds is the charged cost of the whole run: per batch, scheduling
// plus the max execution rounds.
func (r *BatchResult) TotalRounds() int {
	total := 0
	for _, b := range r.Batches {
		total += b.SchedRounds + b.Rounds
	}
	return total
}

// BatchRounds returns the per-batch charged rounds (scheduling +
// execution), the histogram surfaced as deltacolor.Result.RepairBatchRounds.
func (r *BatchResult) BatchRounds() []int {
	out := make([]int, len(r.Batches))
	for i, b := range r.Batches {
		out[i] = b.SchedRounds + b.Rounds
	}
	return out
}

// Repair completes every uncolored node of g with batched Brooks repairs,
// mutating colors in place. See RepairHoles.
func Repair(g *graph.G, colors []int, delta int, seed int64) (*BatchResult, error) {
	return RepairHoles(g, colors, Holes(colors), delta, seed)
}

// Holes returns the uncolored nodes (colors[v] < 0) in ascending order.
func Holes(colors []int) []int {
	var holes []int
	for v, c := range colors {
		if c < 0 {
			holes = append(holes, v)
		}
	}
	return holes
}

// RepairHoles completes the given uncolored nodes (already-colored entries
// are skipped, as a concurrent repair may fill a hole as a side effect),
// mutating colors in place. The partial coloring must be proper; other
// holes — even ones adjacent to each other — are permitted everywhere, per
// FixOne's multi-hole semantics. Each iteration runs every remaining hole's
// token procedure against the current colors, schedules a maximal
// independent set of non-conflicting repair balls via LubyMIS on their
// quotient network, applies that batch (charged max rounds + scheduling),
// and repeats; the seed drives only the MIS lotteries, so runs are
// deterministic.
//
// A repair costs O(its ball), not O(n): one fixer (flat BFS scratch, one
// gallai.Finder) serves every hole of the call, runs each token procedure
// in place and undoes it after reading the result off the repair's ball.
func RepairHoles(g *graph.G, colors []int, holes []int, delta int, seed int64) (*BatchResult, error) {
	res := &BatchResult{}
	remaining := dedupeHoles(g, colors, holes)
	// The fixer and the quotient builder are shared across iterations and
	// built on first use, so their O(n) tables are allocated at most once
	// per call — and not at all when every hole has a free color.
	var fx *fixer
	var qb *local.QuotientBuilder
	// Per-iteration repairs: hole i's ball is nodes[ends[i]:ends[i+1]],
	// with the colors its repair leaves there in cols, both in BFS order.
	var nodes, cols, ends, rounds []int
	var balls [][]int
	for iter := 0; len(remaining) > 0; iter++ {
		if iter > len(holes) {
			return res, fmt.Errorf("brooks: batch repair made no progress after %d iterations (%d holes left)", iter, len(remaining))
		}

		// Optimistic pass: run every remaining repair against the current
		// snapshot and collect its realized ball with the colors it leaves
		// there. The dominant case — the hole has a free color (always true
		// when another hole is adjacent, and typical for deferred nodes) —
		// resolves inline at radius 0 without the fixer; FreeColor picks
		// the same smallest free color FixOne's fast path does.
		nodes, cols, ends, rounds = nodes[:0], cols[:0], append(ends[:0], 0), rounds[:0]
		maxRadius := 0
		for _, v := range remaining {
			if c := FreeColor(g, colors, v, delta); c >= 0 {
				// resolved inline: ModeFree, radius 0, 1 round
				nodes, cols = append(nodes, v), append(cols, c)
				ends, rounds = append(ends, len(nodes)), append(rounds, 1)
				continue
			}
			if fx == nil {
				fx = newFixer(g, delta)
			}
			fix, err := fx.fix(colors, v)
			if err != nil {
				fx.undo(colors, 0)
				return res, fmt.Errorf("brooks: batch repair of node %d: %w", v, err)
			}
			for _, u := range fx.ball(fix.Radius) {
				nodes, cols = append(nodes, u), append(cols, colors[u])
			}
			fx.undo(colors, 0)
			ends, rounds = append(ends, len(nodes)), append(rounds, fix.Rounds)
			if fix.Radius > maxRadius {
				maxRadius = fix.Radius
			}
		}
		balls = balls[:0]
		for i := range remaining {
			balls = append(balls, nodes[ends[i]:ends[i+1]])
		}

		// Schedule: a repair may run alongside another exactly when their
		// balls are non-adjacent in the quotient (disjoint and no crossing
		// edge). A single candidate needs no scheduling.
		chosen := make([]bool, len(remaining))
		schedRounds := 0
		if len(remaining) == 1 {
			chosen[0] = true
		} else {
			if qb == nil {
				qb = local.NewQuotientBuilder(g)
			}
			qnet := qb.Build(balls, seed+int64(iter)*1_000_003)
			inMIS, misRounds := dist.LubyMIS(qnet, nil)
			copy(chosen, inMIS)
			// One ball-exchange pass to discover conflicts, then the MIS
			// itself; every virtual round spans a ball diameter.
			schedRounds = (2*maxRadius + 1) * (misRounds + 1)
		}

		// Execute the batch: each chosen repair writes the colors it left
		// on its whole ball, in ascending hole ID order. A fault-free MIS
		// chooses pairwise disjoint, non-adjacent balls, so the order
		// cannot matter and the result is byte-identical to the
		// sequential engine when every repair is independent. Under an
		// installed FaultPlan the MIS run can choose adjacent quotient
		// nodes, and so overlapping balls: the later repair then
		// overwrites its whole ball — also nodes it left unchanged but an
		// earlier repair of the batch changed — and Changed can list a
		// node more than once.
		info := BatchInfo{SchedRounds: schedRounds, MaxRadius: maxRadius}
		for i, v := range remaining {
			if !chosen[i] || colors[v] >= 0 {
				continue
			}
			for j, u := range balls[i] {
				if c := cols[ends[i]+j]; c != colors[u] {
					colors[u] = c
					res.Changed = append(res.Changed, u)
				}
			}
			info.Size++
			res.SummedRounds += rounds[i]
			if rounds[i] > info.Rounds {
				info.Rounds = rounds[i]
			}
		}
		// An empty batch still ran its scheduling, so it is charged before
		// the failure is reported.
		res.Batches = append(res.Batches, info)
		if info.Size == 0 {
			return res, fmt.Errorf("brooks: batch repair scheduled an empty batch (%d holes left)", len(remaining))
		}
		res.Fixed += info.Size

		// Drop everything now colored: the chosen repairs, plus any hole a
		// DCC or fallback recoloring completed as a side effect.
		kept := remaining[:0]
		for _, v := range remaining {
			if colors[v] < 0 {
				kept = append(kept, v)
			}
		}
		remaining = kept
	}
	return res, nil
}

// dedupeHoles sorts, deduplicates and filters the requested holes down to
// the ones actually uncolored.
func dedupeHoles(g *graph.G, colors []int, holes []int) []int {
	out := make([]int, 0, len(holes))
	for _, v := range holes {
		if v >= 0 && v < g.N() && colors[v] < 0 {
			out = append(out, v)
		}
	}
	sort.Ints(out)
	kept := out[:0]
	for i, v := range out {
		if i == 0 || out[i-1] != v {
			kept = append(kept, v)
		}
	}
	return kept
}
