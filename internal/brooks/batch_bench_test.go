package brooks

import (
	"math/rand"
	"testing"

	"deltacolor/graph"
	"deltacolor/graph/gen"
)

// benchHoleRuns punches horizontal runs of adjacent holes into a grid
// checkerboard: adjacent holes always conflict in the scheduling quotient
// (their balls touch), so each run drains over several MIS iterations —
// the exact shape where the per-iteration O(n) owner scans the
// QuotientBuilder amortizes used to dominate (holes << n, iterations > 1).
func benchHoleRuns(rows, cols, runs, runLen int) (*graph.G, []int, []int) {
	g, colors := checkerboard(rows, cols)
	var holes []int
	stride := rows / (runs + 1)
	for i := 1; i <= runs; i++ {
		r := i * stride
		for c := 2; c < 2+runLen && c < cols; c++ {
			v := r*cols + c
			colors[v] = -1
			holes = append(holes, v)
		}
	}
	return g, colors, holes
}

// BenchmarkRepairHolesManySmall measures the batched repair engine on a
// 200k-node grid with 3200 holes in 200 adjacent runs. Before the shared
// QuotientBuilder, every MIS iteration rebuilt the quotient's node-indexed
// owner table from scratch — two O(n) passes against a hole set three
// orders of magnitude smaller, repeated for every iteration the adjacent
// runs force.
func BenchmarkRepairHolesManySmall(b *testing.B) {
	g, base, holes := benchHoleRuns(400, 500, 200, 16)
	colors := make([]int, len(base))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(colors, base)
		res, err := RepairHoles(g, colors, holes, 4, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(len(res.Batches)), "iterations")
		}
	}
}

// BenchmarkRepairHolesChurn measures the batched repair engine in the
// shape Recolor feeds it under churn: a random 4-regular graph with n =
// 2048, Δ-colored, with 40 holes of which the first eight are made stuck
// where rainbowAt can (all Δ colors around them). About 40 conflicts and
// 6-8 repair batches is what one churn-rr4 call of the benchmark module
// hands Recolor. The free holes resolve inline; each stuck one walks, and
// its realized ball covers most of the graph, so the quotient is nearly a
// clique and the stuck holes drain about one per iteration, each iteration
// rerunning every remaining walk.
func BenchmarkRepairHolesChurn(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := gen.MustRandomRegular(rng, 2048, 4)
	base := randomColoring(b, g, 4, rng)
	holes := rng.Perm(g.N())[:40]
	stuck := 0
	for i, v := range holes {
		if i < 8 {
			rainbowAt(g, base, v, 4)
		}
		base[v] = -1
	}
	for _, v := range holes {
		if FreeColor(g, base, v, 4) < 0 {
			stuck++
		}
	}
	colors := make([]int, len(base))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(colors, base)
		res, err := RepairHoles(g, colors, holes, 4, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(len(res.Batches)), "iterations")
			b.ReportMetric(float64(stuck), "stuck")
		}
	}
}
