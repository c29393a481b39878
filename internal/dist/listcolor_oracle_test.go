package dist

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"deltacolor/graph"
	"deltacolor/graph/gen"
	"deltacolor/local"
)

// This file freezes the original ListColorDeterministic — every node
// stepped in all baseK rounds and broadcasting a (done, color) word in
// each, finals kept in a per-node map, and both validity checks scanning
// g.Edges() — as a test-only oracle. ListColorDeterministic must return
// its colors, rounds and errors, with one exception: an instance with no
// active node returns all -1 in 0 rounds without running the network,
// where the oracle spent baseK idle rounds.

func oracleListColorDet(net *local.Network, li *ListInstance, baseColors []int, baseK int) ([]int, int, error) {
	g := net.Graph()
	n := g.N()
	if len(baseColors) != n {
		return nil, 0, fmt.Errorf("deterministic list coloring: got %d base colors for %d nodes", len(baseColors), n)
	}
	for v := 0; v < n; v++ {
		if baseColors[v] < 0 || baseColors[v] >= baseK {
			return nil, 0, fmt.Errorf("deterministic list coloring: node %d has base class %d outside [0, %d)", v, baseColors[v], baseK)
		}
	}
	for _, e := range g.Edges() {
		if li.Active[e[0]] && li.Active[e[1]] && baseColors[e[0]] == baseColors[e[1]] {
			return nil, 0, fmt.Errorf("deterministic list coloring: base classes not proper on edge (%d,%d)", e[0], e[1])
		}
	}

	type listDetState struct {
		active bool
		color  int
		class  int
		finals map[int]bool
	}
	colors := slices.Repeat([]int{-1}, n)
	local.RunStepped(net, local.Stepped[listDetState]{
		Init: func(ctx *local.Ctx, s *listDetState) bool {
			s.active = li.Active[ctx.ID()]
			s.color = -1
			s.finals = make(map[int]bool)
			ctx.BroadcastInt(encDC(false, false, s.color))
			return true
		},
		Step: func(ctx *local.Ctx, s *listDetState) bool {
			for p := 0; p < ctx.Degree(); p++ {
				if e, ok := ctx.RecvInt(p); ok {
					if done, _, c := decDC(e); done && c >= 0 {
						s.finals[c] = true
					}
				}
			}
			if s.active && s.color < 0 && baseColors[ctx.ID()] == s.class {
				for _, c := range li.Lists[ctx.ID()] {
					if !s.finals[c] {
						s.color = c
						break
					}
				}
			}
			s.class++
			if s.class >= baseK {
				colors[ctx.ID()] = s.color
				return false
			}
			ctx.BroadcastInt(encDC(s.color >= 0, false, s.color))
			return true
		},
	})
	return colors, net.Rounds(), oracleCheckInstanceSolved(g, li, colors)
}

func oracleCheckInstanceSolved(g *graph.G, li *ListInstance, colors []int) error {
	for v := 0; v < g.N(); v++ {
		if !li.Active[v] {
			continue
		}
		if colors[v] < 0 {
			return fmt.Errorf("list coloring: node %d left uncolored", v)
		}
		if !slices.Contains(li.Lists[v], colors[v]) {
			return fmt.Errorf("list coloring: node %d took color %d outside its list", v, colors[v])
		}
	}
	for _, e := range g.Edges() {
		if li.Active[e[0]] && li.Active[e[1]] && colors[e[0]] == colors[e[1]] {
			return fmt.Errorf("list coloring: edge (%d,%d) monochromatic in %d", e[0], e[1], colors[e[0]])
		}
	}
	return nil
}

// randomBase is a proper coloring with classes in [0, k), k > Δ: nodes in
// random order each take a uniformly random class their colored
// neighbors leave free.
func randomBase(g *graph.G, k int, rng *rand.Rand) []int {
	base := make([]int, g.N())
	for v := range base {
		base[v] = -1
	}
	for _, v := range rng.Perm(g.N()) {
		used := make([]bool, k)
		for _, u := range g.Neighbors(v) {
			if c := base[u]; c >= 0 {
				used[c] = true
			}
		}
		var free []int
		for c := range used {
			if !used[c] {
				free = append(free, c)
			}
		}
		base[v] = free[rng.Intn(len(free))]
	}
	return base
}

// listRun is one call's observable result.
type listRun struct {
	colors []int
	rounds int
	err    string
}

func runListDet(f func(*local.Network, *ListInstance, []int, int) ([]int, int, error), g *graph.G, plan *local.FaultPlan, li *ListInstance, base []int, k int) listRun {
	net := local.NewNetwork(g, 15)
	if err := net.SetFaultPlan(plan); err != nil {
		panic(err)
	}
	colors, rounds, err := f(net, li, base, k)
	r := listRun{colors: colors, rounds: rounds}
	if err != nil {
		r.err = err.Error()
	}
	return r
}

func (r listRun) diff(want listRun) string {
	switch {
	case r.err != want.err:
		return fmt.Sprintf("error %q, oracle %q", r.err, want.err)
	case !slices.Equal(r.colors, want.colors):
		return fmt.Sprintf("colors %v, oracle %v", r.colors, want.colors)
	case r.rounds != want.rounds:
		return fmt.Sprintf("rounds %d, oracle %d", r.rounds, want.rounds)
	}
	return ""
}

// TestListColorDeterministicMatchesOracle runs both protocols on every
// family with four active sets (all, partialScenario's random half, every
// third node, one node), two schedules (Linial's, and a random proper
// coloring with more classes) and two palettes (Δ+1, and the tight Δ
// whose lists can run dry), plus an improper schedule. The results must
// be identical: colors, rounds and error text.
func TestListColorDeterministicMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	failed := 0
	for _, fam := range families(t) {
		g := fam.g
		n := g.N()
		random, _, _ := partialScenario(g, 13)
		third := make([]bool, n)
		single := make([]bool, n)
		for v := range third {
			third[v] = v%3 == 0
		}
		single[n/2] = true
		actives := []struct {
			name   string
			active []bool
		}{{"all", nil}, {"random half", random}, {"every third", third}, {"single", single}}

		linial, linialK, _ := Linial(local.NewNetwork(g, 14))
		bigK := max(linialK, g.MaxDegree()+1) + 29
		bases := []struct {
			name string
			base []int
			k    int
		}{{"linial", linial, linialK}, {"random", randomBase(g, bigK, rng), bigK}}

		for _, act := range actives {
			active := make([]bool, n)
			for v := range active {
				active[v] = act.active == nil || act.active[v]
			}
			partial := greedyPartial(g, active)
			for _, b := range bases {
				for _, delta := range []int{g.MaxDegree() + 1, g.MaxDegree()} {
					li := NewListInstance(g, active, partial, delta)
					t.Run(fmt.Sprintf("%s/%s/%s/palette=%d", fam.name, act.name, b.name, delta), func(t *testing.T) {
						want := runListDet(oracleListColorDet, g, nil, li, b.base, b.k)
						got := runListDet(ListColorDeterministic, g, nil, li, b.base, b.k)
						if d := got.diff(want); d != "" {
							t.Fatal(d)
						}
						if want.err != "" {
							failed++
						}
					})
				}
			}
		}

		t.Run(fam.name+"/improper base", func(t *testing.T) {
			es := g.Edges()
			e := es[len(es)-1]
			base := slices.Clone(linial)
			base[e[1]] = base[e[0]]
			li := NewListInstance(g, nil, greedyPartial(g, nil), g.MaxDegree()+1)
			want := runListDet(oracleListColorDet, g, nil, li, base, linialK)
			got := runListDet(ListColorDeterministic, g, nil, li, base, linialK)
			if d := got.diff(want); d != "" {
				t.Fatal(d)
			}
			if got.err == "" {
				t.Fatal("improper base accepted")
			}
		})

		// The one departure: no active node, no run. The oracle idled
		// through baseK rounds to return the same colors.
		t.Run(fam.name+"/no active node", func(t *testing.T) {
			none := make([]bool, n)
			li := NewListInstance(g, none, greedyPartial(g, none), g.MaxDegree()+1)
			want := runListDet(oracleListColorDet, g, nil, li, linial, linialK)
			net := local.NewNetwork(g, 15)
			colors, rounds, err := ListColorDeterministic(net, li, linial, linialK)
			if err != nil || rounds != 0 || net.LastRunStats().Nodes != 0 {
				t.Fatalf("rounds %d, err %v, ran %d nodes: want 0 rounds, no error, no run", rounds, err, net.LastRunStats().Nodes)
			}
			if !slices.Equal(colors, want.colors) || want.rounds != linialK {
				t.Fatalf("colors %v in 0 rounds, oracle %v in %d", colors, want.colors, want.rounds)
			}
		})
	}
	// The tight palette must reach the error path somewhere, or the
	// error comparison above compared nothing.
	if failed == 0 {
		t.Fatal("no instance failed: the error path went untested")
	}
}

// TestListColorDeterministicMatchesOracleUnderFaults replays the oracle
// comparison under fault plans. Fault decisions hash (plan seed, run,
// round, edge slot), and both protocols send identical finals on every
// edge between active nodes, so message faults must leave colors, rounds
// and errors identical. A crash window must not change the colors
// either, but a crashed inactive node no longer holds the run open: it
// halts as soon as it resumes instead of stepping through every class.
func TestListColorDeterministicMatchesOracleUnderFaults(t *testing.T) {
	for _, fam := range families(t) {
		g := fam.g
		active, _, _ := partialScenario(g, 13)
		li := NewListInstance(g, active, greedyPartial(g, active), g.MaxDegree()+1)
		base, k, _ := Linial(local.NewNetwork(g, 14))
		inactive := slices.Index(active, false)
		firstActive := slices.Index(active, true)
		plans := []struct {
			name  string
			plan  *local.FaultPlan
			exact bool
		}{
			{"drop", &local.FaultPlan{Seed: 3, DropProb: 0.3, RoundLimit: 10_000}, true},
			{"drop+dup+delay", &local.FaultPlan{Seed: 4, DropProb: 0.1, DupProb: 0.1, DelayProb: 0.2, MaxDelay: 3, RoundLimit: 10_000}, true},
			{"crash", &local.FaultPlan{Seed: 5, DropProb: 0.05, RoundLimit: 10_000, Crashes: []local.CrashWindow{
				{Node: inactive, From: 1, To: 9}, {Node: firstActive, From: 4, To: 7},
			}}, false},
		}
		for _, pc := range plans {
			t.Run(fam.name+"/"+pc.name, func(t *testing.T) {
				want := runListDet(oracleListColorDet, g, pc.plan, li, base, k)
				got := runListDet(ListColorDeterministic, g, pc.plan, li, base, k)
				if !pc.exact {
					// The oracle waits out the inactive node's 8 frozen
					// rounds; the quiet run only the active node's 3.
					if got.rounds >= want.rounds {
						t.Fatalf("rounds %d, oracle %d: the crashed inactive node still holds the run open", got.rounds, want.rounds)
					}
					got.rounds = want.rounds
				}
				if d := got.diff(want); d != "" {
					t.Fatal(d)
				}
			})
		}
	}
}

var sinkListColors []int

// BenchmarkListColorDeterministic times one layer-sized instance on the
// network a pipeline reuses: every ninth node of a random 4-regular graph
// active against a greedy coloring of the rest, scheduled by Linial's
// classes (121 rounds).
func BenchmarkListColorDeterministic(b *testing.B) {
	g := gen.MustRandomRegular(rand.New(rand.NewSource(1)), 2048, 4)
	active := make([]bool, g.N())
	for v := 0; v < g.N(); v += 9 {
		active[v] = true
	}
	li := NewListInstance(g, active, greedyPartial(g, active), g.MaxDegree()+1)
	net := local.NewNetwork(g, 1)
	base, k, _ := Linial(net)
	b.ReportAllocs()
	for b.Loop() {
		colors, _, err := ListColorDeterministic(net, li, base, k)
		if err != nil {
			b.Fatal(err)
		}
		sinkListColors = colors
	}
}
