package local

import "testing"

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
	// dead sends, two messages, two rounds.
	RunStepped(net, roundProgram(func(ctx *Ctx, _ *struct{}, round int) bool {
		switch {
		case ctx.ID() == 0:
			return false
		case round == 0:
			ctx.Send(0, "hello?")
		case round == 1:
			ctx.Send(0, "anyone?")
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

	// Run 2: one clean round, no dead sends. Every report must describe
	// this run only.
	RunStepped(net, oneRound(func(ctx *Ctx) { ctx.Broadcast("fine") }))
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
