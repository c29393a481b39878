package main

import (
	"fmt"
	"math/rand"

	"deltacolor"
	"deltacolor/graph"
	"deltacolor/graph/gen"
	"deltacolor/local"
)

// A workload is one input family the benchmark drives through the public
// API. setup builds a fresh instance from the run seed; every call of the
// instance takes its own seed (run seed + call index), so two commits
// measured with the same run seed do identical work.
type workload struct {
	name  string
	setup func(seed int64, quick bool) (instance, error)
}

// instance is a workload's live state between calls.
type instance interface {
	// call is one caller-facing operation.
	call(seed int64) (outcome, error)
	// current returns the graph the next call runs on and, for a workload
	// that carries a coloring across calls, that coloring (nil otherwise).
	current() (*graph.G, []int)
}

// outcome is what one call hands back to its caller. colors may alias
// instance state, so it is checked before the next call.
type outcome struct {
	colors []int
	delta  int
	rounds int         // charged LOCAL rounds
	span   *local.Span // pipeline span tree; nil unless a tracer is installed
}

// The four workloads stress different layers (see README.md): the central
// DCC search, the central AGLP ruling set, the round engine, and Brooks
// repair under churn.
var workloads = []workload{
	{"rand-rr4", colorSetup(deltacolor.AlgRandomized, func(rng *rand.Rand, quick bool) *graph.G {
		return gen.MustRandomRegular(rng, pick(quick, 128, 1024), 4)
	})},
	{"det-rr4", colorSetup(deltacolor.AlgDeterministic, func(rng *rand.Rand, quick bool) *graph.G {
		return gen.MustRandomRegular(rng, pick(quick, 128, 2048), 4)
	})},
	{"netdec-torus", colorSetup(deltacolor.AlgNetDec, func(_ *rand.Rand, quick bool) *graph.G {
		k := pick(quick, 8, 32)
		return gen.Torus(k, k)
	})},
	{"churn-rr4", churnSetup},
}

func pick(quick bool, small, full int) int {
	if quick {
		return small
	}
	return full
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// colorInstance calls deltacolor.Color with one algorithm on a fixed graph.
type colorInstance struct {
	g   *graph.G
	alg deltacolor.Algorithm
}

func colorSetup(alg deltacolor.Algorithm, input func(*rand.Rand, bool) *graph.G) func(int64, bool) (instance, error) {
	return func(seed int64, quick bool) (instance, error) {
		return &colorInstance{g: input(rand.New(rand.NewSource(seed)), quick), alg: alg}, nil
	}
}

func (c *colorInstance) call(seed int64) (outcome, error) {
	res, err := deltacolor.Color(c.g, deltacolor.Options{Algorithm: c.alg, Seed: seed})
	if err != nil {
		return outcome{}, err
	}
	return outcome{colors: res.Colors, delta: res.Delta, rounds: res.Rounds, span: res.Span}, nil
}

func (c *colorInstance) current() (*graph.G, []int) { return c.g, nil }

// churnInstance keeps a Δ-coloring alive on a random 4-regular graph
// while degree-preserving edge swaps rewire it through the live
// local.Network churn API. With every degree equal to Δ = 4 no node has
// slack, so conflicts need real Brooks walks.
type churnInstance struct {
	g      *graph.G
	net    *local.Network
	colors []int
	delta  int
}

func churnSetup(seed int64, quick bool) (instance, error) {
	g := gen.MustRandomRegular(rand.New(rand.NewSource(seed)), pick(quick, 512, 2048), 4)
	res, err := deltacolor.Color(g, deltacolor.Options{Algorithm: deltacolor.AlgNetDec, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("initial coloring: %w", err)
	}
	return &churnInstance{g: g, net: local.NewNetwork(g, seed), colors: res.Colors, delta: res.Delta}, nil
}

func (c *churnInstance) call(seed int64) (outcome, error) {
	if err := swapEdges(c.net, rand.New(rand.NewSource(seed)), swapCount(c.g)); err != nil {
		return outcome{}, err
	}
	st, err := deltacolor.Recolor(c.g, c.colors, c.delta, seed)
	if err != nil {
		return outcome{}, err
	}
	return outcome{colors: c.colors, delta: c.delta, rounds: st.RepairRounds}, nil
}

func (c *churnInstance) current() (*graph.G, []int) { return c.g, c.colors }

// swapCount is the size of one churn step: n/25 swaps, which leave about
// 40 conflicts at n = 2048. With fewer, most steps need the same handful
// of repair batches and the median call jumps between batch counts from
// one seed to the next.
func swapCount(g *graph.G) int { return max(1, g.N()/25) }

// swapEdges performs k degree-preserving double-edge swaps {a,b},{c,d} →
// {a,c},{b,d} on net's graph, so Δ and every degree stay fixed. The
// choices depend only on rng and the graph, so replaying the same rng on
// a clone of the graph makes the same swaps.
func swapEdges(net *local.Network, rng *rand.Rand, k int) error {
	g := net.Graph()
	for done, tries := 0, 0; done < k; tries++ {
		if tries > 1000*k {
			return fmt.Errorf("edge swaps: only %d of %d found in %d tries", done, k, tries)
		}
		a, c := rng.Intn(g.N()), rng.Intn(g.N())
		if g.Deg(a) == 0 || g.Deg(c) == 0 {
			continue
		}
		b, d := g.Neighbors(a)[rng.Intn(g.Deg(a))], g.Neighbors(c)[rng.Intn(g.Deg(c))]
		if a == c || a == d || b == c || b == d || g.HasEdge(a, c) || g.HasEdge(b, d) {
			continue
		}
		err := net.RemoveEdge(a, b)
		if err == nil {
			err = net.RemoveEdge(c, d)
		}
		if err == nil {
			err = net.AddEdge(a, c)
		}
		if err == nil {
			err = net.AddEdge(b, d)
		}
		if err != nil {
			return fmt.Errorf("edge swap: %w", err)
		}
		done++
	}
	return nil
}
