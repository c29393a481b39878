package local

import (
	"slices"
	"strings"
	"testing"
)

// maskedFlood is floodProtocol restricted to the nodes in: each member
// draws a start value, then sends its running sum every round on the
// ports that lead to members only, folds in what it hears, and halts
// after 4 + id%5 rounds. steps[id] counts every Init and Step the node
// runs; out[id] is its final sum.
func maskedFlood(in []bool, out, steps []int) Stepped[roundState[int]] {
	return roundProgram(func(ctx *Ctx, sum *int, round int) bool {
		v := ctx.ID()
		steps[v]++
		if round == 0 {
			*sum = ctx.Rand().Intn(1000)
		}
		for p := 0; p < ctx.Degree(); p++ {
			if m := ctx.Recv(p); m != nil {
				*sum = (*sum + int(m[0])) % 1_000_003
			}
		}
		if round == 4+v%5 {
			out[v] = *sum
			return false
		}
		if !in[v] {
			return false
		}
		for p, u := range ctx.net.g.Neighbors(v) {
			if in[u] {
				ctx.Send(p, []int32{int32(*sum)})
			}
		}
		return true
	})
}

// setOf returns the nodes v of an n-node graph with keep(v), ascending,
// and the matching mask.
func setOf(n int, keep func(v int) bool) ([]int, []bool) {
	var nodes []int
	in := make([]bool, n)
	for v := range n {
		if keep(v) {
			nodes = append(nodes, v)
			in[v] = true
		}
	}
	return nodes, in
}

// TestNodeSetRunStepsOnlyMembers: a run over a node set steps exactly its
// members, counts only them in RunStats, and equals the full run in which
// every other node halts at Init without a word. The set may be given in
// any order and with repeats; it is a large share of the nodes or a few.
func TestNodeSetRunStepsOnlyMembers(t *testing.T) {
	g := randomGraph(300, 0.02, 5)
	sets := map[string]func(v int) bool{
		"two thirds": func(v int) bool { return v%3 != 0 },
		"a few":      func(v int) bool { return v%37 == 4 },
	}
	for name, keep := range sets {
		nodes, in := setOf(g.N(), keep)
		slices.Reverse(nodes)
		listed := append(nodes, nodes[:3]...)

		net := NewNetwork(g, 9)
		out, steps := make([]int, g.N()), make([]int, g.N())
		RunStepped(net, maskedFlood(in, out, steps), listed...)
		for v := range g.N() {
			if !in[v] && steps[v] != 0 {
				t.Fatalf("%s: node %d outside the set ran %d segments", name, v, steps[v])
			}
			if in[v] && steps[v] != 5+v%5 {
				t.Fatalf("%s: member %d ran %d segments, want %d", name, v, steps[v], 5+v%5)
			}
		}
		if st := net.LastRunStats(); st.Nodes != len(nodes) {
			t.Fatalf("%s: run stats %+v, want %d nodes", name, st, len(nodes))
		}

		full := NewNetwork(g, 9)
		want := make([]int, g.N())
		RunStepped(full, maskedFlood(in, want, make([]int, g.N())))
		if !slices.Equal(out, want) || net.Rounds() != full.Rounds() {
			t.Fatalf("%s: node-set run: %d rounds; full run with the others halting at once: %d rounds (outputs equal: %v)",
				name, net.Rounds(), full.Rounds(), slices.Equal(out, want))
		}
	}
}

// TestNodeSetRunScheduleInvariance: outputs, rounds and the tracer's
// message counts of a node-set run do not depend on the worker count or
// the batch size. The set (about 800 nodes) is large enough for the
// parallel phases.
func TestNodeSetRunScheduleInvariance(t *testing.T) {
	g := randomGraph(1200, 0.004, 8)
	nodes, in := setOf(g.N(), func(v int) bool { return v%3 != 1 })
	run := func(batchSize, workers int) ([]int, int, Counters) {
		net := NewNetwork(g, 4)
		net.setBatch(batchSize)
		net.SetWorkers(workers)
		tr := NewTracer(TraceCounters, 0)
		net.SetTracer(tr)
		out := make([]int, g.N())
		RunStepped(net, maskedFlood(in, out, make([]int, g.N())), nodes...)
		return out, net.Rounds(), tr.Counters()
	}
	base, baseRounds, baseStats := run(0, 1)
	if baseStats.Messages() == 0 {
		t.Fatal("the members sent nothing")
	}
	for _, bs := range []int{0, 1, 3, 64, 5000} {
		for _, w := range []int{1, 3, 8} {
			out, rounds, stats := run(bs, w)
			if rounds != baseRounds || stats != baseStats || !slices.Equal(out, base) {
				t.Fatalf("batch=%d workers=%d: rounds %d, stats %+v; want rounds %d, stats %+v (outputs equal: %v)",
					bs, w, rounds, stats, baseRounds, baseStats, slices.Equal(out, base))
			}
		}
	}
}

// TestNodeSetSendToAbsentIsLate: a node outside the set reads as halted
// from round 0, so a message staged for it is a dead send with HaltRound
// 0, late in every round, and strict mode rejects the run. That holds on
// a fresh network and on one whose last run was cut off with every node
// still running.
func TestNodeSetSendToAbsentIsLate(t *testing.T) {
	g := pathGraph(3)
	// Node 1 sends to node 2 (its port 1) in Init, then halts after one
	// round; node 0 only listens.
	prog := oneRound(func(ctx *Ctx) {
		if ctx.ID() == 1 {
			ctx.SendInt(1, 7)
		}
	})
	cut := NewNetwork(g, 1)
	if err := cut.SetFaultPlan(&FaultPlan{RoundLimit: 3}); err != nil {
		t.Fatal(err)
	}
	RunStepped(cut, roundProgram(func(*Ctx, *struct{}, int) bool { return true }))
	if err := cut.SetFaultPlan(nil); err != nil {
		t.Fatal(err)
	}
	for name, net := range map[string]*Network{"fresh": NewNetwork(g, 1), "after a cut-off run": cut} {
		net.TrackDeadSends(true)
		tr := NewTracer(TraceCounters, 0)
		net.SetTracer(tr)
		RunStepped(net, prog, 0, 1)
		want := DeadSend{From: 1, Port: 1, To: 2, Round: 1, HaltRound: 0}
		if ds := net.DeadSends(); len(ds) != 1 || ds[0] != want {
			t.Fatalf("%s: dead sends %v, want [%+v]", name, ds, want)
		}
		if late := net.LateDeadSends(); len(late) != 1 {
			t.Fatalf("%s: late dead sends %v, want the send to the absent node", name, late)
		}
		if c := tr.Counters(); c.Messages() != 1 || c.Drops != 1 {
			t.Fatalf("%s: counters %+v, want 1 message, 1 dropped", name, c)
		}
	}

	SetStrictDeadSends(true)
	strict := NewNetwork(g, 1)
	SetStrictDeadSends(false)
	defer func() {
		r, _ := recover().(string)
		if !strings.Contains(r, "late dead send") {
			t.Fatalf("strict run: recovered %q, want a late dead send panic", r)
		}
	}()
	RunStepped(strict, prog, 0, 1)
	t.Fatal("strict mode accepted a send to a node outside the set")
}

// TestNodeSetEdgeCases: an empty set runs nothing; a set of every node,
// listed with repeats, is the full run; an out-of-range node panics.
func TestNodeSetEdgeCases(t *testing.T) {
	g := cycleGraph(12)
	net := NewNetwork(g, 3)
	steps := make([]int, g.N())
	RunStepped(net, maskedFlood(make([]bool, g.N()), make([]int, g.N()), steps), []int{}...)
	if st := net.LastRunStats(); st.Nodes != 0 || st.Rounds != 0 || slices.Max(steps) != 0 {
		t.Fatalf("empty set: stats %+v, steps %v; want nothing run", st, steps)
	}

	all, in := setOf(g.N(), func(int) bool { return true })
	out, want := make([]int, g.N()), make([]int, g.N())
	RunStepped(net, maskedFlood(in, out, steps), append(all, 3, 0, 11)...)
	RunStepped(NewNetwork(g, 3), maskedFlood(in, want, steps))
	if !slices.Equal(out, want) {
		t.Fatalf("set of every node: %v, full run %v", out, want)
	}

	for _, bad := range [][]int{{1, 12}, {-1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("node set %v accepted", bad)
				}
			}()
			RunStepped(net, oneRound(func(*Ctx) {}), bad...)
		}()
	}
}
