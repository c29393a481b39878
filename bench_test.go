package deltacolor_test

// One sub-benchmark per entry of exp.Experiments. Each iteration
// regenerates the experiment's full table (in quick mode so -bench
// terminates in minutes); `go run ./cmd/benchsuite` produces the
// full-scale tables. The benchmarks double as end-to-end smoke tests:
// every runner panics on an invalid coloring.

import (
	"math/rand"
	"testing"

	"deltacolor"
	"deltacolor/graph"
	"deltacolor/graph/gen"
	"deltacolor/internal/dist"
	"deltacolor/internal/exp"
	"deltacolor/local"
)

func BenchmarkExperiments(b *testing.B) {
	for _, e := range exp.Experiments {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if rep := e.Run(exp.Config{Quick: true, Seed: int64(i + 1)}); len(rep.Table.Rows) == 0 {
					b.Fatalf("experiment %s produced no rows", e.ID)
				}
			}
		})
	}
}

// Micro-benchmarks of the public API on a fixed workload, for profiling the
// algorithms themselves rather than the experiment sweeps.

func benchColor(b *testing.B, n, d int, alg deltacolor.Algorithm) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	g := gen.MustRandomRegular(rng, n, d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := deltacolor.Color(g, deltacolor.Options{Algorithm: alg, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if res.Rounds <= 0 {
			b.Fatal("no rounds charged")
		}
	}
}

func BenchmarkColorRandomizedN1024D4(b *testing.B) {
	benchColor(b, 1024, 4, deltacolor.AlgRandomized)
}

func BenchmarkColorRandomizedN1024D8(b *testing.B) {
	benchColor(b, 1024, 8, deltacolor.AlgRandomized)
}

func BenchmarkColorDeterministicN1024D4(b *testing.B) {
	benchColor(b, 1024, 4, deltacolor.AlgDeterministic)
}

func BenchmarkColorBaselineN1024D4(b *testing.B) {
	benchColor(b, 1024, 4, deltacolor.AlgBaseline)
}

func BenchmarkColorNetDecN1024D4(b *testing.B) {
	benchColor(b, 1024, 4, deltacolor.AlgNetDec)
}

// Scheduler micro-benchmarks: network construction on a dense graph (the
// linear-time reverse-port build) and a full dist primitive at scale (the
// sharded barrier and active-set delivery).

func BenchmarkNewNetworkClique2048(b *testing.B) {
	g := gen.Complete(2048)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if net := local.NewNetwork(g, 1); net.Graph() != g {
			b.Fatal("bad network")
		}
	}
}

func BenchmarkLinial100kRandomRegular(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	g := gen.MustRandomRegular(rng, 100_000, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net := local.NewNetwork(g, 7)
		colors, _, rounds := dist.Linial(net)
		if rounds <= 0 || len(colors) != g.N() {
			b.Fatal("bad Linial run")
		}
	}
}

// Quotient-network construction: the DCC/ruling-set phases build many
// small virtual networks per run. The direct port-table construction
// (local.QuotientNetwork) avoids graph.Quotient's full-edge scan and
// per-edge dedupe followed by a NewNetwork rebuild.

func quotientBenchInstance() (*graph.G, [][]int) {
	rng := rand.New(rand.NewSource(5))
	g := gen.MustRandomRegular(rng, 100_000, 4)
	var groups [][]int
	for v := 0; v+3 < g.N(); v += 40 {
		groups = append(groups, []int{v, v + 1, v + 2})
	}
	return g, groups
}

func BenchmarkQuotientViaGraphQuotient(b *testing.B) {
	g, groups := quotientBenchInstance()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if net := local.NewNetwork(graph.Quotient(g, groups), 1); net.Graph().N() != len(groups) {
			b.Fatal("bad quotient")
		}
	}
}

func BenchmarkQuotientNetworkFromPorts(b *testing.B) {
	g, groups := quotientBenchInstance()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if net := local.QuotientNetwork(g, groups, 1); net.Graph().N() != len(groups) {
			b.Fatal("bad quotient")
		}
	}
}
