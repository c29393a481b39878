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

// This file freezes the original list-coloring code as test-only oracles:
//
//   - the list-table instance: NewListInstance built every active node's
//     list up front in an n-sized table, and CheckDegPlusOne read it;
//   - ListColorRandomized with its finals kept in a per-node map, the
//     list pruned in a pass after every round B, and each round A's
//     proposals collected in a slice;
//   - ListColorDeterministic with every node stepped in all baseK rounds
//     and broadcasting a (done, color) word in each, finals kept in a
//     per-node map, and both validity checks scanning g.Edges().
//
// The protocols must return the oracles' colors, rounds and errors, and
// CheckDegPlusOne the oracle's verdict, with one exception: on an
// instance with no active node both protocols return all -1 in 0 rounds
// without running the network, where the deterministic oracle spent
// baseK idle rounds and the randomized one a round of byes.

// oracleListInstance is the list-table instance: Lists[v] holds active
// v's list, ascending.
type oracleListInstance struct {
	Active []bool
	Lists  [][]int
	Delta  int
}

func oracleNewListInstance(g *graph.G, active []bool, partial []int, delta int) *oracleListInstance {
	n := g.N()
	act := make([]bool, n)
	for v := 0; v < n; v++ {
		act[v] = active == nil || active[v]
	}
	lists := make([][]int, n)
	for v := 0; v < n; v++ {
		if !act[v] {
			continue
		}
		used := make([]bool, delta)
		for _, u := range g.Neighbors(v) {
			if c := partial[u]; c >= 0 && c < delta {
				used[c] = true
			}
		}
		list := make([]int, 0, delta)
		for c := 0; c < delta; c++ {
			if !used[c] {
				list = append(list, c)
			}
		}
		lists[v] = list
	}
	return &oracleListInstance{Active: act, Lists: lists, Delta: delta}
}

func (li *oracleListInstance) CheckDegPlusOne(g *graph.G) error {
	for v := 0; v < g.N(); v++ {
		if !li.Active[v] {
			continue
		}
		deg := 0
		for _, u := range g.Neighbors(v) {
			if li.Active[u] {
				deg++
			}
		}
		if len(li.Lists[v]) < deg+1 {
			return fmt.Errorf("list instance: node %d has %d list colors for active degree %d", v, len(li.Lists[v]), deg)
		}
	}
	return nil
}

type oracleListRandState struct {
	inactive bool
	afterB   bool
	color    int
	propose  int
	stuck    bool
	phase    int
	list     []int
	known    []byte
	bye      byeTracker
	finals   map[int]bool
}

func (s *oracleListRandState) lcNote(p int, done, bye bool, c int) {
	if bye {
		s.bye.note(p)
	}
	if done {
		s.known[p] = misIn
		if c >= 0 {
			s.finals[c] = true
		}
	}
}

func oracleListColorRand(net *local.Network, li *oracleListInstance) ([]int, int, error) {
	g := net.Graph()
	n := g.N()
	maxPhases := 16
	for top := n + 2; top > 1; top /= 2 {
		maxPhases += 6
	}

	sendA := func(ctx *local.Ctx, s *oracleListRandState) {
		s.propose = -1
		if s.color < 0 && !s.stuck {
			s.propose = s.list[ctx.Rand().Intn(len(s.list))]
		}
		if s.color >= 0 || s.stuck {
			s.bye.castInt(ctx, encDC(true, false, s.color))
		} else {
			s.bye.castRec(ctx, []int32{int32(s.propose), int32(ctx.ID())})
		}
		s.afterB = false
	}

	colors := slices.Repeat([]int{-1}, n)
	local.RunStepped(net, local.Stepped[oracleListRandState]{
		Init: func(ctx *local.Ctx, s *oracleListRandState) bool {
			if !li.Active[ctx.ID()] {
				ctx.BroadcastInt(encDC(true, true, -1))
				s.inactive = true
				return true
			}
			s.list = append([]int(nil), li.Lists[ctx.ID()]...)
			s.color = -1
			s.known = make([]byte, ctx.Degree())
			s.bye.init(ctx.Degree())
			s.finals = make(map[int]bool)
			sendA(ctx, s)
			return true
		},
		Step: func(ctx *local.Ctx, s *oracleListRandState) bool {
			if s.inactive {
				return false
			}
			if !s.afterB {
				type prop struct {
					color int
					id    int
				}
				props := make([]prop, 0, ctx.Degree())
				for p := 0; p < ctx.Degree(); p++ {
					if e, ok := ctx.RecvInt(p); ok {
						done, bye, c := decDC(e)
						s.lcNote(p, done, bye, c)
						continue
					}
					if m := ctx.Recv(p); m != nil {
						s.known[p] = misUndecided
						if m[0] >= 0 {
							props = append(props, prop{color: int(m[0]), id: int(m[1])})
						}
					}
				}
				if s.color >= 0 || s.stuck {
					done := true
					for p := 0; p < ctx.Degree(); p++ {
						if s.known[p] != misIn {
							done = false
							break
						}
					}
					if done {
						s.bye.castInt(ctx, encDC(true, true, s.color))
						colors[ctx.ID()] = s.color
						return false
					}
				}
				if s.color < 0 && s.propose >= 0 && !s.finals[s.propose] {
					keep := true
					for _, pr := range props {
						if pr.color == s.propose && pr.id < ctx.ID() {
							keep = false
							break
						}
					}
					if keep {
						s.color = s.propose
					}
				}
				s.bye.castInt(ctx, encDC(s.color >= 0 || s.stuck, false, s.color))
				s.afterB = true
				return true
			}
			for p := 0; p < ctx.Degree(); p++ {
				if e, ok := ctx.RecvInt(p); ok {
					done, bye, c := decDC(e)
					s.lcNote(p, done, bye, c)
				}
			}
			if s.color < 0 {
				pruned := s.list[:0]
				for _, c := range s.list {
					if !s.finals[c] {
						pruned = append(pruned, c)
					}
				}
				s.list = pruned
				s.stuck = len(s.list) == 0
			}
			s.phase++
			if s.phase >= maxPhases {
				colors[ctx.ID()] = s.color
				return false
			}
			sendA(ctx, s)
			return true
		},
	})
	return colors, net.Rounds(), oracleCheckInstanceSolved(g, li, colors)
}

func oracleListColorDet(net *local.Network, li *oracleListInstance, baseColors []int, baseK int) ([]int, int, error) {
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

func oracleCheckInstanceSolved(g *graph.G, li *oracleListInstance, colors []int) error {
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

// runList runs f on a fresh network over g under plan (nil: none).
func runList(g *graph.G, plan *local.FaultPlan, f func(*local.Network) ([]int, int, error)) listRun {
	net := local.NewNetwork(g, 15)
	if err := net.SetFaultPlan(plan); err != nil {
		panic(err)
	}
	colors, rounds, err := f(net)
	r := listRun{colors: colors, rounds: rounds}
	if err != nil {
		r.err = err.Error()
	}
	return r
}

// byNode spreads colors aligned with li.Nodes over all n nodes, -1
// elsewhere: the shape the frozen protocols return. nil stays nil.
func byNode(li *ListInstance, n int, colors []int) []int {
	if colors == nil {
		return nil
	}
	out := slices.Repeat([]int{-1}, n)
	for i, v := range li.Nodes {
		out[v] = colors[i]
	}
	return out
}

// runListDet runs ListColorDeterministic and its oracle on the instance
// the layer (active, partial, delta) defines.
func runListDet(g *graph.G, plan *local.FaultPlan, active []bool, partial []int, delta int, base []int, k int) (got, want listRun) {
	li := NewListInstance(g, active, partial, delta)
	oli := oracleNewListInstance(g, active, partial, delta)
	got = runList(g, plan, func(net *local.Network) ([]int, int, error) {
		colors, rounds, err := ListColorDeterministic(net, li, base, k)
		return byNode(li, g.N(), colors), rounds, err
	})
	want = runList(g, plan, func(net *local.Network) ([]int, int, error) { return oracleListColorDet(net, oli, base, k) })
	return got, want
}

// checkRandMatchesOracle runs ListColorRandomized and its oracle on the
// instance the layer (active, partial, delta) defines and fails t unless
// they agree. Where an active node's list starts empty the oracle panics
// (its round 1 draws from the empty list), so there it is not run, and
// ListColorRandomized, which starts such a node stuck, must fail the
// instance. Where no node is active, ListColorRandomized must take 0
// rounds to the oracle's 1. It returns the oracle's run and whether the
// oracle ran.
func checkRandMatchesOracle(t *testing.T, g *graph.G, plan *local.FaultPlan, active []bool, partial []int, delta int) (listRun, bool) {
	t.Helper()
	li := NewListInstance(g, active, partial, delta)
	oli := oracleNewListInstance(g, active, partial, delta)
	got := runList(g, plan, func(net *local.Network) ([]int, int, error) {
		colors, rounds, err := ListColorRandomized(net, li)
		return byNode(li, g.N(), colors), rounds, err
	})
	for v, a := range oli.Active {
		if a && len(oli.Lists[v]) == 0 {
			if got.err == "" {
				t.Fatalf("node %d starts with an empty list, yet the run succeeded", v)
			}
			return listRun{}, false
		}
	}
	want := runList(g, plan, func(net *local.Network) ([]int, int, error) { return oracleListColorRand(net, oli) })
	if !slices.Contains(active, true) {
		if got.rounds != 0 || want.rounds != 1 {
			t.Fatalf("no active node: rounds %d, oracle %d; want 0 and 1", got.rounds, want.rounds)
		}
		got.rounds = want.rounds
	}
	if d := got.diff(want); d != "" {
		t.Fatal(d)
	}
	return want, true
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
					t.Run(fmt.Sprintf("%s/%s/%s/palette=%d", fam.name, act.name, b.name, delta), func(t *testing.T) {
						got, want := runListDet(g, nil, active, partial, delta, b.base, b.k)
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
			got, want := runListDet(g, nil, nil, greedyPartial(g, nil), g.MaxDegree()+1, base, linialK)
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
			partial := greedyPartial(g, none)
			_, want := runListDet(g, nil, none, partial, g.MaxDegree()+1, linial, linialK)
			li := NewListInstance(g, none, partial, g.MaxDegree()+1)
			net := local.NewNetwork(g, 15)
			colors, rounds, err := ListColorDeterministic(net, li, linial, linialK)
			if err != nil || rounds != 0 || net.LastRunStats().Nodes != 0 {
				t.Fatalf("rounds %d, err %v, ran %d nodes: want 0 rounds, no error, no run", rounds, err, net.LastRunStats().Nodes)
			}
			if !slices.Equal(byNode(li, n, colors), want.colors) || want.rounds != linialK {
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
// either, but a crashed inactive node no longer holds the run open: on
// the layer's boundary it halts as soon as it resumes instead of stepping
// through every class, and off it the node does not run at all.
func TestListColorDeterministicMatchesOracleUnderFaults(t *testing.T) {
	for _, fam := range families(t) {
		g := fam.g
		active, _, _ := partialScenario(g, 13)
		partial := greedyPartial(g, active)
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
				got, want := runListDet(g, pc.plan, active, partial, g.MaxDegree()+1, base, k)
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

// randomLayer draws an arbitrary instance on g: each node active with
// probability pActive, and a partial coloring, proper or not, in which
// each node holds a uniform value in [-1, delta] (-1 uncolored, delta
// outside the palette) with probability pColored and is uncolored
// otherwise.
func randomLayer(g *graph.G, rng *rand.Rand, pActive, pColored float64, delta int) ([]bool, []int) {
	active := make([]bool, g.N())
	partial := make([]int, g.N())
	for v := range active {
		active[v] = rng.Float64() < pActive
		partial[v] = -1
		if rng.Float64() < pColored {
			partial[v] = rng.Intn(delta+2) - 1
		}
	}
	return active, partial
}

// checkDegVerdicts compares CheckDegPlusOne with the list-table oracle's
// verdict and reports whether the instance passed.
func checkDegVerdicts(t *testing.T, g *graph.G, active []bool, partial []int, delta int) bool {
	t.Helper()
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	got := errText(NewListInstance(g, active, partial, delta).CheckDegPlusOne(g))
	want := errText(oracleNewListInstance(g, active, partial, delta).CheckDegPlusOne(g))
	if got != want {
		t.Fatalf("CheckDegPlusOne %q, oracle %q", got, want)
	}
	return got == ""
}

// TestListColorRandomizedMatchesOracle runs the protocol and its frozen
// oracle on random rr4 graphs, tori and G(n, p) graphs, each with random
// active masks and partial colorings (arbitrary ones, whose lists are
// often tight or empty, and the greedy coloring of the inactive nodes,
// whose instances are deg+1) over the palettes Δ+1, Δ and Δ-1, fault-free
// and under drops, duplicates and delays. Colors, rounds, error text and
// CheckDegPlusOne's verdict must be identical, and both verdicts, both
// outcomes and a list that starts empty must occur.
func TestListColorRandomizedMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	graphs := []struct {
		name string
		g    *graph.G
	}{
		{"rr4 n=96", gen.MustRandomRegular(rng, 96, 4)},
		{"rr4 n=128", gen.MustRandomRegular(rng, 128, 4)},
		{"torus 8x8", gen.Torus(8, 8)},
		{"torus 6x10", gen.Torus(6, 10)},
		{"gnp n=80 p=0.06", gen.GNPMaxDeg(rng, 80, 0.06, 9)},
		{"gnp n=60 p=0.15", gen.GNPMaxDeg(rng, 60, 0.15, 12)},
	}
	plans := []struct {
		name string
		plan *local.FaultPlan
	}{
		{"fault-free", nil},
		{"drop+dup+delay", &local.FaultPlan{Seed: 6, DropProb: 0.1, DupProb: 0.1, DelayProb: 0.2, MaxDelay: 3, RoundLimit: 10_000}},
	}
	var passed, rejected, solved, failed, empty int
	for _, tg := range graphs {
		g := tg.g
		// The departure from the oracle: no active node, no run.
		t.Run(tg.name+"/no active node", func(t *testing.T) {
			none := make([]bool, g.N())
			partial := greedyPartial(g, none)
			checkRandMatchesOracle(t, g, nil, none, partial, g.MaxDegree()+1)
			net := local.NewNetwork(g, 15)
			colors, rounds, err := ListColorRandomized(net, NewListInstance(g, none, partial, g.MaxDegree()+1))
			if err != nil || rounds != 0 || net.LastRunStats().Nodes != 0 || len(colors) != 0 {
				t.Fatalf("rounds %d, err %v, ran %d nodes, %d colors: want 0 rounds, no error, no run, no colors",
					rounds, err, net.LastRunStats().Nodes, len(colors))
			}
		})
		for i := range 4 {
			pActive := []float64{1, 0.6, 0.3, 0.8}[i]
			for _, delta := range []int{g.MaxDegree() + 1, g.MaxDegree(), g.MaxDegree() - 1} {
				active, partial := randomLayer(g, rng, pActive, 0.5, delta)
				layers := []struct {
					name    string
					partial []int
				}{{"random", partial}, {"greedy", greedyPartial(g, active)}}
				for _, l := range layers {
					if checkDegVerdicts(t, g, active, l.partial, delta) {
						passed++
					} else {
						rejected++
					}
					for _, pc := range plans {
						t.Run(fmt.Sprintf("%s/%d/palette=%d/%s/%s", tg.name, i, delta, l.name, pc.name), func(t *testing.T) {
							want, ran := checkRandMatchesOracle(t, g, pc.plan, active, l.partial, delta)
							switch {
							case !ran:
								empty++
							case want.err != "":
								failed++
							default:
								solved++
							}
						})
					}
				}
			}
		}
	}
	if passed == 0 || rejected == 0 || solved == 0 || failed == 0 || empty == 0 {
		t.Fatalf("deg+1 passed %d, rejected %d; runs solved %d, failed %d, started empty %d: a case went untested", passed, rejected, solved, failed, empty)
	}
}

// fuzzListInstance decodes a graph of at most 20 nodes with an instance
// on it: n-1 in the first byte, the palette (0 to 8 colors) in the
// second, a fault plan in the third (bit 0 on: drops, duplicates and
// delays, with the probabilities picked by bits 1-6), then one byte per
// node (bit 0: active; the rest, mod palette+2, minus 1: the partial
// color), then one edge per byte pair; self-loops and repeated edges are
// skipped. Missing bytes leave a node active and uncolored.
func fuzzListInstance(data []byte) (g *graph.G, active []bool, partial []int, delta int, plan *local.FaultPlan) {
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	n := 1 + at(0)%20
	delta = at(1) % 9
	if f := at(2); f&1 == 1 {
		plan = &local.FaultPlan{
			Seed:      int64(f),
			DropProb:  float64(f>>1&3) / 8,
			DupProb:   float64(f>>3&3) / 8,
			DelayProb: float64(f>>5&3) / 8,
			MaxDelay:  3,
			// Cuts a run that drops keep from finishing.
			RoundLimit: 400,
		}
	}
	g = graph.New(n)
	active = make([]bool, n)
	partial = make([]int, n)
	for v := range n {
		b, ok := 0, 3+v < len(data)
		if ok {
			b = at(3 + v)
		}
		active[v] = !ok || b&1 == 1
		partial[v] = (b>>1)%(delta+2) - 1
		if !ok {
			partial[v] = -1
		}
	}
	for i := 3 + n; i+1 < len(data); i += 2 {
		u, v := at(i)%n, at(i+1)%n
		if u != v && !g.HasEdge(u, v) {
			g.MustEdge(u, v)
		}
	}
	return g, active, partial, delta, plan
}

// FuzzListColorRandomizedMatchesOracle: on a random instance over a
// graph of at most 20 nodes, ListColorRandomized returns the frozen
// protocol's colors, rounds and error, fault-free or not (or fails the
// instance where a list starts empty and the oracle would panic), and
// CheckDegPlusOne the list-table oracle's verdict.
func FuzzListColorRandomizedMatchesOracle(f *testing.F) {
	f.Add([]byte{})
	// K4 on palette 4, every node active and uncolored: deg+1 holds.
	f.Add([]byte{3, 4, 0, 1, 1, 1, 1, 0, 1, 0, 2, 0, 3, 1, 2, 1, 3, 2, 3})
	// The same K4 on palette 3 under drops and delays: lists run dry.
	f.Add([]byte{3, 3, 0x63, 1, 1, 1, 1, 0, 1, 0, 2, 0, 3, 1, 2, 1, 3, 2, 3})
	// A 6-cycle with nodes 0 and 3 inactive and colored 0 and 1.
	f.Add([]byte{5, 3, 0, 2, 1, 1, 4, 1, 1, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, active, partial, delta, plan := fuzzListInstance(data)
		checkDegVerdicts(t, g, active, partial, delta)
		checkRandMatchesOracle(t, g, plan, active, partial, delta)
	})
}

// FuzzListColorDeterministicMatchesOracle: on a random instance over a
// graph of at most 20 nodes (fuzzListInstance), scheduled by a random
// proper base coloring whose class count and classes derive from the
// input, ListColorDeterministic returns the frozen protocol's colors,
// rounds and error, fault-free or under drops, duplicates and delays.
// With no active node it returns the oracle's colors in 0 rounds.
func FuzzListColorDeterministicMatchesOracle(f *testing.F) {
	f.Add([]byte{})
	// K4 on palette 4, every node active and uncolored: deg+1 holds.
	f.Add([]byte{3, 4, 0, 1, 1, 1, 1, 0, 1, 0, 2, 0, 3, 1, 2, 1, 3, 2, 3})
	// The same K4 on palette 3 under drops and delays: lists run dry.
	f.Add([]byte{3, 3, 0x63, 1, 1, 1, 1, 0, 1, 0, 2, 0, 3, 1, 2, 1, 3, 2, 3})
	// A 6-cycle with nodes 0 and 3 inactive and colored 0 and 1.
	f.Add([]byte{5, 3, 0, 2, 1, 1, 4, 1, 1, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 0})
	// A path of three inactive nodes: nothing to color.
	f.Add([]byte{2, 3, 0x1f, 0, 2, 4, 0, 1, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, active, partial, delta, plan := fuzzListInstance(data)
		h := fnv.New64a()
		h.Write(data)
		rng := rand.New(rand.NewSource(int64(h.Sum64())))
		k := g.MaxDegree() + 1 + rng.Intn(4)
		base := randomBase(g, k, rng)
		got, want := runListDet(g, plan, active, partial, delta, base, k)
		if !slices.Contains(active, true) {
			if got.rounds != 0 || want.rounds != k {
				t.Fatalf("no active node: rounds %d, oracle %d; want 0 and %d", got.rounds, want.rounds, k)
			}
			got.rounds = want.rounds
		}
		if d := got.diff(want); d != "" {
			t.Fatal(d)
		}
	})
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
