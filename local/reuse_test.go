package local

import (
	"slices"
	"testing"
)

// TestNetworkReuseResetsRunState is the regression test for the
// run-state leak: a second Run on the same network must start from
// clean dead-send logs and run stats, and the tracer must count only its
// own messages — a clean second run must not report the first run's dead
// sends, message counts, or rounds.
func TestNetworkReuseResetsRunState(t *testing.T) {
	g := pathGraph(2)
	net := NewNetwork(g, 1)
	net.TrackDeadSends(true)
	tr := NewTracer(TraceCounters, 0)
	net.SetTracer(tr)

	// Run 1: node 0 halts immediately, node 1 keeps talking to it — two
	// dead sends, two one-word messages, two rounds.
	RunStepped(net, roundProgram(func(ctx *Ctx, _ *struct{}, round int) bool {
		switch {
		case ctx.ID() == 0:
			return false
		case round == 0:
			ctx.Send(0, []int32{1})
		case round == 1:
			ctx.Send(0, []int32{2})
		}
		return round < 2
	}))
	if len(net.DeadSends()) != 2 {
		t.Fatalf("run 1: dead sends = %v, want 2", net.DeadSends())
	}
	st1 := tr.Counters()
	if st1.Messages() != 2 || st1.Drops != 2 || st1.Words != 2 {
		t.Fatalf("run 1: counters = %+v, want 2 one-word messages, 2 dropped", st1)
	}
	rounds1 := net.LastRunStats().Rounds

	// Run 2: one clean round of two-word records, no dead sends. Every
	// report must describe this run only.
	RunStepped(net, oneRound(func(ctx *Ctx) { ctx.Broadcast([]int32{3, 4}) }))
	if ds := net.DeadSends(); ds != nil {
		t.Errorf("run 2 inherited dead sends: %v", ds)
	}
	st2 := tr.Counters()
	if msgs, drops, words := st2.Messages()-st1.Messages(), st2.Drops-st1.Drops, st2.Words-st1.Words; msgs != 2 || drops != 0 || words != 4 {
		t.Errorf("run 2 counted %d messages, %d drops, %d words; want 2, 0, 4 (run 1: %+v)", msgs, drops, words, st1)
	}
	lr := net.LastRunStats()
	if lr.Rounds != 1 || lr.Rounds == rounds1 {
		t.Errorf("run 2 LastRunStats = %+v, want Rounds=1 (run 1 had %d)", lr, rounds1)
	}
	if net.Rounds() != 1 {
		t.Errorf("run 2 Rounds() = %d, want 1", net.Rounds())
	}
}

// TestSetupClearsLastRunStats: setup must zero lastRun so a run that is
// still in flight (or died mid-run) never exposes the previous run's
// numbers.
func TestSetupClearsLastRunStats(t *testing.T) {
	g := pathGraph(2)
	net := NewNetwork(g, 1)
	RunStepped(net, oneRound(func(*Ctx) {}))
	if net.LastRunStats().Rounds == 0 {
		t.Fatal("first run recorded no stats")
	}
	net.setup(nil)
	if st := net.LastRunStats(); st != (RunStats{}) {
		t.Fatalf("setup left stale run stats: %+v", st)
	}
}

// TestReusedRunTablesStartClean pins the reuse of the run tables. Three
// runs leave state behind on one network: a run cut off by a RoundLimit
// leaves records and ints staged on every port; a node-set run ends with
// its members' last sweep staged, toward absent nodes too, and their
// generators drawn; a run whose node panics mid-round leaves lanes, flags
// and halt rounds as they were. The run after each on the same network
// must neither deliver nor count any of it. That run, in which each node
// draws from its generator and sends on port 0 only, must match the same
// program on a fresh network in draws, outputs, rounds and the tracer's
// counters.
func TestReusedRunTablesStartClean(t *testing.T) {
	g := randomGraph(80, 0.08, 11)
	// Every node stages -1 on every port, records on even ports and ints
	// on odd ones, every round, and never halts on its own.
	noisy := roundProgram(func(ctx *Ctx, _ *struct{}, round int) bool {
		for p := 0; p < ctx.Degree(); p++ {
			if p%2 == 0 {
				ctx.Send(p, []int32{-1, int32(round)})
			} else {
				ctx.SendInt(p, -1)
			}
		}
		return true
	})
	// Each node draws once from its generator into draws[ctx.ID()], sends
	// its ID on port 0, as an int and then as a record, and reports into
	// heard[ctx.ID()] every (port, word) it heard.
	quiet := func(heard [][]int, draws []int64) Stepped[roundState[struct{}]] {
		return roundProgram(func(ctx *Ctx, _ *struct{}, round int) bool {
			v := ctx.ID()
			if round == 0 {
				draws[v] = ctx.Rand().Int63()
			}
			for p := 0; p < ctx.Degree(); p++ {
				if x, ok := ctx.RecvInt(p); ok {
					heard[v] = append(heard[v], p, x)
				}
				for _, w := range ctx.Recv(p) {
					heard[v] = append(heard[v], p, int(w))
				}
			}
			switch {
			case round == 2:
				return false
			case ctx.Degree() == 0:
			case round == 0:
				ctx.SendInt(0, v)
			default:
				ctx.Send(0, []int32{int32(v)})
			}
			return true
		})
	}

	fresh := NewNetwork(g, 1)
	freshTr := NewTracer(TraceCounters, 0)
	fresh.SetTracer(freshTr)
	want, wantDraws := make([][]int, g.N()), make([]int64, g.N())
	RunStepped(fresh, quiet(want, wantDraws))

	// The reused network's tracer also watches the runs that leave state
	// behind; each check counts the clean run alone.
	reused := NewNetwork(g, 1)
	tr := NewTracer(TraceCounters, 0)
	reused.SetTracer(tr)
	checkClean := func(after string) {
		t.Helper()
		tr.Reset()
		got, draws := make([][]int, g.N()), make([]int64, g.N())
		RunStepped(reused, quiet(got, draws))
		if !slices.Equal(draws, wantDraws) {
			t.Fatalf("after %s: the generators did not restart", after)
		}
		if reused.Rounds() != fresh.Rounds() || tr.Counters() != freshTr.Counters() {
			t.Fatalf("after %s: rounds %d, counters %+v; fresh: rounds %d, counters %+v",
				after, reused.Rounds(), tr.Counters(), fresh.Rounds(), freshTr.Counters())
		}
		for v := range want {
			heard := got[v]
			if !slices.Equal(heard, want[v]) {
				t.Fatalf("after %s: node %d heard %v on the reused network, %v on a fresh one", after, v, heard, want[v])
			}
			for i := 1; i < len(heard); i += 2 {
				if heard[i] < 0 {
					t.Fatalf("after %s: node %d heard a message of that run on port %d", after, v, heard[i-1])
				}
			}
		}
	}

	if err := reused.SetFaultPlan(&FaultPlan{RoundLimit: 2}); err != nil {
		t.Fatal(err)
	}
	RunStepped(reused, noisy)
	if reused.FaultStats().RoundLimited != 1 {
		t.Fatal("the noisy run was not cut off by its RoundLimit")
	}
	if err := reused.SetFaultPlan(nil); err != nil {
		t.Fatal(err)
	}
	checkClean("a run cut off by its RoundLimit")

	// The even nodes draw, stage -1 on every port every round, and halt
	// after two rounds with their last stagings undelivered.
	var evens []int
	for v := 0; v < g.N(); v += 2 {
		evens = append(evens, v)
	}
	RunStepped(reused, roundProgram(func(ctx *Ctx, _ *struct{}, round int) bool {
		ctx.Rand().Int63()
		for p := 0; p < ctx.Degree(); p++ {
			ctx.SendInt(p, -1)
		}
		return round < 2
	}), evens...)
	if reused.LastRunStats().Nodes != len(evens) {
		t.Fatalf("node-set run ran %d nodes, want %d", reused.LastRunStats().Nodes, len(evens))
	}
	checkClean("a node-set run")

	// Every node stages on every port; in round 2, node 5 panics while
	// the others step, stage and halt around it.
	func() {
		defer func() {
			if r := recover(); r != "node 5 fails" {
				t.Fatalf("recovered %v, want node 5's panic", r)
			}
		}()
		RunStepped(reused, roundProgram(func(ctx *Ctx, _ *struct{}, round int) bool {
			if round == 2 && ctx.ID() == 5 {
				panic("node 5 fails")
			}
			for p := 0; p < ctx.Degree(); p++ {
				ctx.Send(p, []int32{-1})
			}
			return ctx.ID()%3 != 0 || round < 1
		}))
	}()
	checkClean("a run that panicked")
}
