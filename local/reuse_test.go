package local

import (
	"slices"
	"testing"
)

// TestNetworkReuseResetsRunState is the regression test for the
// run-state leak: a second Run on the same network must start from
// clean dead-send logs, message-stat counters and run stats — a clean
// second run must not report the first run's dead sends, message
// counts, or rounds.
func TestNetworkReuseResetsRunState(t *testing.T) {
	g := pathGraph(2)
	net := NewNetwork(g, 1)
	net.TrackDeadSends(true)
	net.EnableMessageStats()

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
	st1 := *net.MessageStats()
	if st1.Messages != 2 || st1.Dropped != 2 {
		t.Fatalf("run 1: stats = %+v, want 2 messages, 2 dropped", st1)
	}
	rounds1 := net.LastRunStats().Rounds

	// Run 2: one clean round of two-word records, no dead sends. Every
	// report must describe this run only.
	RunStepped(net, oneRound(func(ctx *Ctx) { ctx.Broadcast([]int32{3, 4}) }))
	if ds := net.DeadSends(); ds != nil {
		t.Errorf("run 2 inherited dead sends: %v", ds)
	}
	st2 := *net.MessageStats()
	if st2.Messages != 2 || st2.Dropped != 0 || st2.TotalBytes == st1.TotalBytes {
		t.Errorf("run 2 stats not reset: %+v (run 1: %+v)", st2, st1)
	}
	if st2.RoundsActive != 1 {
		t.Errorf("run 2 RoundsActive = %d, want 1", st2.RoundsActive)
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

// TestReusedRunTablesStartClean pins the reuse of the run tables: a run
// cut off by a RoundLimit leaves records and ints staged on every port,
// and the next run on the same network must neither deliver nor count
// any of them. That run, in which each node sends on port 0 only, must
// match the same program on a fresh network in outputs, rounds and
// MessageStats.
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
	// Each node sends its ID on port 0, as an int and then as a record,
	// and reports every (port, word) it heard.
	quiet := roundProgram(func(ctx *Ctx, heard *[]int, round int) bool {
		for p := 0; p < ctx.Degree(); p++ {
			if v, ok := ctx.RecvInt(p); ok {
				*heard = append(*heard, p, v)
			}
			for _, w := range ctx.Recv(p) {
				*heard = append(*heard, p, int(w))
			}
		}
		switch {
		case round == 2:
			ctx.SetOutput(*heard)
			return false
		case ctx.Degree() == 0:
		case round == 0:
			ctx.SendInt(0, ctx.ID())
		default:
			ctx.Send(0, []int32{int32(ctx.ID())})
		}
		return true
	})

	reused, fresh := NewNetwork(g, 1), NewNetwork(g, 1)
	reused.EnableMessageStats()
	fresh.EnableMessageStats()
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
	got, want := RunStepped(reused, quiet), RunStepped(fresh, quiet)
	if reused.Rounds() != fresh.Rounds() || *reused.MessageStats() != *fresh.MessageStats() {
		t.Fatalf("reused network: rounds %d, stats %+v; fresh: rounds %d, stats %+v",
			reused.Rounds(), *reused.MessageStats(), fresh.Rounds(), *fresh.MessageStats())
	}
	for v := range want {
		heard := got[v].([]int)
		if !slices.Equal(heard, want[v].([]int)) {
			t.Fatalf("node %d heard %v on the reused network, %v on a fresh one", v, heard, want[v])
		}
		for i := 1; i < len(heard); i += 2 {
			if heard[i] < 0 {
				t.Fatalf("node %d heard a message of the cut-off run on port %d", v, heard[i-1])
			}
		}
	}
}
