package dist

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"

	"deltacolor/graph"
	"deltacolor/graph/gen"
	"deltacolor/local"
)

// oracleReduceColors is the color reduction as first written, frozen: every
// node steps and broadcasts its current color in every one of the k-target
// rounds, and a recoloring node collects its neighbors' target colors from
// that round's messages into a fresh table. ReduceColors must return its
// colors, rounds and error whenever no fault is injected.
func oracleReduceColors(net *local.Network, base []int, k, target int) ([]int, int, error) {
	g := net.Graph()
	n := g.N()
	if len(base) != n {
		return nil, 0, fmt.Errorf("reduce colors: got %d base colors for %d nodes", len(base), n)
	}
	if target < 1 {
		return nil, 0, fmt.Errorf("reduce colors: target %d < 1", target)
	}
	for v := 0; v < n; v++ {
		if base[v] < 0 || base[v] >= k {
			return nil, 0, fmt.Errorf("reduce colors: node %d has color %d outside [0, %d)", v, base[v], k)
		}
	}
	for _, e := range g.Edges() {
		if base[e[0]] == base[e[1]] {
			return nil, 0, fmt.Errorf("reduce colors: input not proper: edge (%d,%d) both colored %d", e[0], e[1], base[e[0]])
		}
	}
	if k <= target {
		return append([]int(nil), base...), 0, nil
	}

	type reduceState struct {
		color int
		class int
	}
	colors := slices.Repeat([]int{-1}, n)
	local.RunStepped(net, local.Stepped[reduceState]{
		Init: func(ctx *local.Ctx, s *reduceState) bool {
			s.color = base[ctx.ID()]
			s.class = k - 1
			ctx.BroadcastInt(s.color)
			return true
		},
		Step: func(ctx *local.Ctx, s *reduceState) bool {
			if s.color == s.class {
				used := make([]bool, target)
				for p := 0; p < ctx.Degree(); p++ {
					if m, ok := ctx.RecvInt(p); ok && m < target {
						used[m] = true
					}
				}
				for f := 0; f < target; f++ {
					if !used[f] {
						s.color = f
						break
					}
				}
			}
			s.class--
			if s.class < target {
				colors[ctx.ID()] = s.color
				return false
			}
			ctx.BroadcastInt(s.color)
			return true
		},
	})

	for v := 0; v < n; v++ {
		if colors[v] >= target {
			return colors, net.Rounds(), fmt.Errorf("reduce colors: node %d stuck at color %d >= target %d (degree %d)", v, colors[v], target, g.Deg(v))
		}
	}
	return colors, net.Rounds(), nil
}

// runReduce runs ReduceColors and its oracle on fresh networks over g under
// plan (nil: none), and returns both runs and the messages ReduceColors
// staged.
func runReduce(g *graph.G, plan *local.FaultPlan, base []int, k, target int) (got, want listRun, messages int) {
	got = runList(g, plan, func(net *local.Network) ([]int, int, error) {
		tr := local.NewTracer(local.TraceCounters, 0)
		net.SetTracer(tr)
		defer func() { messages = int(tr.Counters().Messages()) }()
		return ReduceColors(net, base, k, target)
	})
	want = runList(g, plan, func(net *local.Network) ([]int, int, error) { return oracleReduceColors(net, base, k, target) })
	return got, want, messages
}

// TestReduceColorsMatchesOracle runs ReduceColors and the frozen protocol
// on every family and on random graphs of mixed degrees, from Linial's
// coloring and from random proper colorings with k from Δ+1 to 3Δ+4
// classes, down to every target from 1 to k+1. Colors, rounds and error
// text must be identical, and ReduceColors must stage at most 2·Σdeg
// messages: one broadcast at the start and one when a node recolors.
func TestReduceColorsMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	type input struct {
		name string
		g    *graph.G
	}
	var inputs []input
	for _, f := range families(t) {
		inputs = append(inputs, input{f.name, f.g})
	}
	for i := range 6 {
		inputs = append(inputs, input{fmt.Sprintf("gnp n=40 #%d", i), gen.GNPMaxDeg(rng, 40, 0.05+0.05*float64(i), 4+2*i)})
	}
	cases, stuck := 0, 0
	for _, in := range inputs {
		g, delta := in.g, in.g.MaxDegree()
		linial, lk, _ := Linial(local.NewNetwork(g, 1))
		k := delta + 1 + rng.Intn(2*delta+4)
		schedules := []struct {
			base []int
			k    int
		}{{linial, lk}, {randomBase(g, k, rng), k}}
		for _, sc := range schedules {
			for target := 1; target <= sc.k+1; target++ {
				got, want, msgs := runReduce(g, nil, sc.base, sc.k, target)
				if d := got.diff(want); d != "" {
					t.Fatalf("%s, k=%d, target=%d: %s", in.name, sc.k, target, d)
				}
				if limit := 4 * g.M(); msgs > limit {
					t.Fatalf("%s, k=%d, target=%d: %d messages, want at most 2·Σdeg = %d", in.name, sc.k, target, msgs, limit)
				}
				cases++
				if want.err != "" {
					stuck++
				}
			}
		}
	}
	if stuck == 0 || stuck == cases {
		t.Fatalf("%d of %d runs failed: the stuck or the solved path went untested", stuck, cases)
	}
}

// TestReduceColorsQuietRun pins what quietness buys on a random 4-regular
// graph of 1,024 nodes reduced from Linial's 121 colors to 5: the 116
// rounds are charged as before, but the run stages at most 2·Σdeg
// messages where the frozen protocol broadcasts on every port in each
// round, and its nodes step far fewer times, since each halts once it has
// announced a color below the target.
func TestReduceColorsQuietRun(t *testing.T) {
	g := gen.MustRandomRegular(rand.New(rand.NewSource(4)), 1024, 4)
	base, k, _ := Linial(local.NewNetwork(g, 1))
	measure := func(run func(*local.Network) ([]int, int, error)) (rounds, messages, steps int) {
		net := local.NewNetwork(g, 1)
		tr := local.NewTracer(local.TraceFull, 0)
		net.SetTracer(tr)
		_, rounds, err := run(net)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range tr.Rounds() {
			steps += r.Live
		}
		return rounds, int(tr.Counters().Messages()), steps
	}
	rounds, msgs, steps := measure(func(net *local.Network) ([]int, int, error) { return ReduceColors(net, base, k, 5) })
	orounds, omsgs, osteps := measure(func(net *local.Network) ([]int, int, error) { return oracleReduceColors(net, base, k, 5) })
	if k != 121 || rounds != k-5 || orounds != rounds {
		t.Fatalf("k = %d, rounds %d, oracle %d; want 121 and 116 each", k, rounds, orounds)
	}
	if limit := 4 * g.M(); msgs > limit || omsgs < limit*(k-5)/2 {
		t.Fatalf("messages %d, oracle %d; want at most 2·Σdeg = %d, and the oracle's one broadcast per round", msgs, omsgs, limit)
	}
	if steps*3 > osteps*2 {
		t.Fatalf("%d node steps, oracle %d; want at most two thirds", steps, osteps)
	}
	t.Logf("messages %d (oracle %d), node steps %d (oracle %d)", msgs, omsgs, steps, osteps)
}

// FuzzReduceColorsMatchesOracle: on a random graph of at most 20 nodes
// (fuzzListInstance's graph and fault plan) with a random proper base
// coloring of k classes and a target, both derived from the input,
// ReduceColors returns the frozen protocol's colors, rounds and error when
// no fault is injected. Under drops, duplicates and delays, with a target
// of at least Δ+1, it must not panic and every color must lie in
// [0, target) or be -1 (a node the RoundLimit cut off).
func FuzzReduceColorsMatchesOracle(f *testing.F) {
	f.Add([]byte{})
	// K4 reduced from random classes, fault-free.
	f.Add([]byte{3, 4, 0, 1, 1, 1, 1, 0, 1, 0, 2, 0, 3, 1, 2, 1, 3, 2, 3})
	// The same K4 under drops and delays.
	f.Add([]byte{3, 3, 0x63, 1, 1, 1, 1, 0, 1, 0, 2, 0, 3, 1, 2, 1, 3, 2, 3})
	// A 6-cycle.
	f.Add([]byte{5, 3, 0, 2, 1, 1, 4, 1, 1, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, _, _, _, plan := fuzzListInstance(data)
		h := fnv.New64a()
		h.Write(data)
		rng := rand.New(rand.NewSource(int64(h.Sum64())))
		delta := g.MaxDegree()
		k := delta + 1 + rng.Intn(2*delta+4)
		target := 1 + rng.Intn(k+1)
		base := randomBase(g, k, rng)
		if plan == nil {
			got, want, msgs := runReduce(g, nil, base, k, target)
			if d := got.diff(want); d != "" {
				t.Fatalf("k=%d, target=%d: %s", k, target, d)
			}
			if msgs > 4*g.M() {
				t.Fatalf("k=%d, target=%d: %d messages, want at most 2·Σdeg = %d", k, target, msgs, 4*g.M())
			}
			return
		}
		target = max(target, delta+1)
		got := runList(g, plan, func(net *local.Network) ([]int, int, error) { return ReduceColors(net, base, k, target) })
		for v, c := range got.colors {
			if c < -1 || c >= target {
				t.Fatalf("k=%d, target=%d under faults: node %d has color %d", k, target, v, c)
			}
		}
	})
}
