package exp

// E13: the repair tail. Every composite algorithm ends in the Brooks
// safety net; until PR 4 it ran centrally one hole at a time and charged
// the summed rounds — the scaling bottleneck the ROADMAP flagged. E13
// measures the batched engine (internal/brooks.RepairHoles) against that
// sequential accounting on forced-repair workloads: a grid with a known
// 2-out-of-Δ checkerboard coloring and k punched holes, spread (pairwise
// independent, one batch) or paired (adjacent dominoes, two batches), at n
// up to 10⁶. The claim the table demonstrates is the acceptance criterion
// of the PR: charged repair rounds scale with the number of batches
// (≈ max per batch + scheduling), not with k.

import (
	"fmt"
	"time"

	"deltacolor/graph"
	"deltacolor/graph/gen"
	"deltacolor/internal/brooks"
	"deltacolor/verify"
)

// repairWorkload punches holes into a checkerboard-colored side×side grid.
// Pattern "spread" uncolors one cell per stride×stride tile (pairwise
// non-adjacent); "paired" uncolors horizontal dominoes at the same stride
// (each pair conflicts internally, forcing a second batch).
func repairWorkload(side, stride int, pattern string) (g *graph.G, colors []int, holes int) {
	g = gen.Grid(side, side)
	colors = make([]int, g.N())
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			colors[r*side+c] = (r + c) % 2
		}
	}
	for r := 0; r+1 < side; r += stride {
		for c := 0; c+1 < side; c += stride {
			colors[r*side+c] = -1
			holes++
			if pattern == "paired" {
				colors[r*side+c+1] = -1
				holes++
			}
		}
	}
	return g, colors, holes
}

// repairStride picks the tile size so the hole count lands near target.
func repairStride(side, target int) int {
	stride := 3
	for (side/stride)*(side/stride) > target {
		stride++
	}
	return stride
}

// E13RepairTail compares the pre-batching sequential safety net (FixOne
// per hole, O(n) copy per application, summed rounds) against the batched
// engine on the forced-repair workloads, reporting both the round
// accounting and the wall time of the central simulation.
func E13RepairTail(cfg Config) *Table {
	cfg.install()
	t := &Table{
		ID:     "E13",
		Title:  "Repair tail: batched Brooks engine vs sequential safety net (forced-repair grids)",
		Header: []string{"pattern", "n", "holes", "batches", "summed rounds", "batched rounds", "ratio", "seq ms", "batch ms"},
	}
	sides := []int{100, 316, 1000}
	target := 2048
	if cfg.Quick {
		sides = []int{32, 100}
		target = 256
	}
	delta := 4
	worstRatio := 0.0
	for _, pattern := range []string{"spread", "paired"} {
		for _, side := range sides {
			stride := repairStride(side, target)
			g, colors, holes := repairWorkload(side, stride, pattern)

			// Before: the sequential engine (what the pipelines' safety net
			// did before batching — FixOne in ascending ID order, full-slice
			// copy per repair, summed rounds).
			seq := append([]int(nil), colors...)
			t0 := time.Now()
			summed := 0
			for v := 0; v < g.N(); v++ {
				if seq[v] >= 0 {
					continue
				}
				res, err := brooks.FixOne(g, seq, v, delta)
				if err != nil {
					panic(fmt.Sprintf("E13 %s side=%d: sequential repair of %d: %v", pattern, side, v, err))
				}
				copy(seq, res.Colors)
				summed += res.Rounds
			}
			seqMillis := float64(time.Since(t0).Microseconds()) / 1000
			if err := verify.DeltaColoring(g, seq, delta); err != nil {
				panic(fmt.Sprintf("E13 %s side=%d sequential: %v", pattern, side, err))
			}

			// After: the batched engine.
			t1 := time.Now()
			res, err := brooks.Repair(g, colors, delta, cfg.Seed)
			if err != nil {
				panic(fmt.Sprintf("E13 %s side=%d: %v", pattern, side, err))
			}
			batchMillis := float64(time.Since(t1).Microseconds()) / 1000
			if err := verify.DeltaColoring(g, colors, delta); err != nil {
				panic(fmt.Sprintf("E13 %s side=%d batched: %v", pattern, side, err))
			}
			if res.Fixed != holes {
				panic(fmt.Sprintf("E13 %s side=%d: fixed %d of %d holes", pattern, side, res.Fixed, holes))
			}
			if res.SummedRounds != summed {
				panic(fmt.Sprintf("E13 %s side=%d: engine counterfactual %d != sequential charge %d", pattern, side, res.SummedRounds, summed))
			}
			if res.TotalRounds() >= summed {
				panic(fmt.Sprintf("E13 %s side=%d: batched charge %d did not beat summed %d", pattern, side, res.TotalRounds(), summed))
			}

			r := ratio(res.TotalRounds(), summed)
			if r > worstRatio {
				worstRatio = r
			}
			t.AddRow(pattern, itoa(g.N()), itoa(holes), itoa(len(res.Batches)),
				itoa(summed), itoa(res.TotalRounds()), f4(r),
				f2(seqMillis), f2(batchMillis))
		}
	}
	t.AddNote("charged repair rounds scale with the number of batches (max per batch + MIS scheduling on the ball quotient), not with the hole count k: worst batched/summed ratio %.4f. The sequential column also pays an O(n) color copy per repair; the engine resolves a hole with a free color inline and reads any other repair's colors off its ball.", worstRatio)
	return t
}
