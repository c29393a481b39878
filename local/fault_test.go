package local

import (
	"hash"
	"hash/fnv"
	"runtime"
	"slices"
	"testing"
	"time"

	"deltacolor/graph"
)

func TestFaultPlanValidate(t *testing.T) {
	cases := []struct {
		name string
		plan FaultPlan
		ok   bool
	}{
		{"zero plan", FaultPlan{}, true},
		{"round budget only", FaultPlan{RoundLimit: 10}, true},
		{"drop with limit", FaultPlan{DropProb: 0.1, RoundLimit: 100}, true},
		{"drop without limit", FaultPlan{DropProb: 0.1}, false},
		{"crash without limit", FaultPlan{Crashes: []CrashWindow{{Node: 1, From: 2, To: 3}}}, false},
		{"prob out of range", FaultPlan{DropProb: 1.5, RoundLimit: 10}, false},
		{"negative prob", FaultPlan{DupProb: -0.1, RoundLimit: 10}, false},
		{"delay without max", FaultPlan{DelayProb: 0.1, RoundLimit: 10}, false},
		{"delay ok", FaultPlan{DelayProb: 0.1, MaxDelay: 3, RoundLimit: 10}, true},
		{"crash from round 0", FaultPlan{Crashes: []CrashWindow{{Node: 0, From: 0}}, RoundLimit: 10}, false},
		{"crash empty window", FaultPlan{Crashes: []CrashWindow{{Node: 0, From: 3, To: 3}}, RoundLimit: 10}, false},
		{"crash forever", FaultPlan{Crashes: []CrashWindow{{Node: 0, From: 3}}, RoundLimit: 10}, true},
		{"bad message window", FaultPlan{DropProb: 0.1, FromRound: 5, ToRound: 2, RoundLimit: 10}, false},
		{"negative limit", FaultPlan{RoundLimit: -1}, false},
	}
	for _, tc := range cases {
		err := tc.plan.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: validation passed, want error", tc.name)
		}
	}
}

func TestSetFaultPlanRejectsInvalid(t *testing.T) {
	net := NewNetwork(pathGraph(3), 1)
	if err := net.SetFaultPlan(&FaultPlan{DropProb: 0.5}); err == nil {
		t.Fatal("attach of invalid plan succeeded")
	}
	if net.FaultPlan() != nil {
		t.Fatal("invalid plan left attached")
	}
	if err := SetDefaultFaultPlan(&FaultPlan{DropProb: 2}); err == nil {
		t.Fatal("invalid default plan accepted")
	}
}

func TestDefaultFaultPlanPickup(t *testing.T) {
	plan := &FaultPlan{DropProb: 0.25, RoundLimit: 64}
	if err := SetDefaultFaultPlan(plan); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = SetDefaultFaultPlan(nil) }()
	net := NewNetwork(pathGraph(4), 1)
	if net.FaultPlan() != plan {
		t.Fatal("NewNetwork did not pick up the default fault plan")
	}
	_ = SetDefaultFaultPlan(nil)
	net2 := NewNetwork(pathGraph(4), 1)
	if net2.FaultPlan() != nil {
		t.Fatal("plan still attached after default cleared")
	}
}

// broadcastRounds is the shared fixed-round probe: every node broadcasts
// its ID for rounds rounds and writes into out[ctx.ID()] how many int
// messages it received.
func broadcastRounds(rounds int, out []int) Stepped[roundState[int]] {
	return roundProgram(func(ctx *Ctx, got *int, round int) bool {
		for p := 0; p < ctx.Degree(); p++ {
			if _, ok := ctx.RecvInt(p); ok {
				*got++
			}
		}
		if round == rounds {
			out[ctx.ID()] = *got
			return false
		}
		ctx.BroadcastInt(ctx.ID())
		return true
	})
}

func TestDropAllMessages(t *testing.T) {
	g := pathGraph(4) // directed degree sum 6
	net := NewNetwork(g, 1)
	tr := NewTracer(TraceCounters, 0)
	net.SetTracer(tr)
	if err := net.SetFaultPlan(&FaultPlan{Seed: 9, DropProb: 1, RoundLimit: 50}); err != nil {
		t.Fatal(err)
	}
	outs := make([]int, g.N())
	RunStepped(net, broadcastRounds(3, outs))
	for v, o := range outs {
		if o != 0 {
			t.Fatalf("node %d received %v messages despite DropProb=1", v, o)
		}
	}
	// Three delivery rounds of 6 staged messages each, all dropped.
	fs := net.FaultStats()
	if fs.Drops != 18 {
		t.Fatalf("Drops = %d, want 18", fs.Drops)
	}
	if got := fs.Drops + fs.CrashDrops + fs.DelayedDrops; got != 18 {
		t.Fatalf("messages destroyed by the plan = %d, want 18", got)
	}
	if got := tr.Counters().FaultDrops; got != 18 {
		t.Fatalf("tracer FaultDrops = %d, want 18", got)
	}
	if fs.RoundLimited != 0 {
		t.Fatalf("run flagged RoundLimited, rounds=%d", net.Rounds())
	}
}

func TestNoFaultsLeaveStatsZero(t *testing.T) {
	net := NewNetwork(pathGraph(4), 1)
	RunStepped(net, broadcastRounds(2, make([]int, 4)))
	if fs := net.FaultStats(); fs != (FaultStats{}) {
		t.Fatalf("fault stats nonzero without a plan: %+v", fs)
	}
}

// faultHashProbe runs a fixed number of rounds and writes into
// out[ctx.ID()] a hash of everything the node observed (per-port values
// per round), so any schedule difference changes the output.
func faultHashProbe(rounds int, out []uint64) Stepped[roundState[hash.Hash64]] {
	return roundProgram(func(ctx *Ctx, h *hash.Hash64, round int) bool {
		if round == 0 {
			*h = fnv.New64a()
		}
		put := func(v int) {
			var buf [8]byte
			for i := range buf {
				buf[i] = byte(v >> (8 * i))
			}
			(*h).Write(buf[:])
		}
		for p := 0; p < ctx.Degree(); p++ {
			if v, ok := ctx.RecvInt(p); ok {
				put(p)
				put(v)
			}
		}
		if round == rounds {
			out[ctx.ID()] = (*h).Sum64()
			return false
		}
		ctx.BroadcastInt(ctx.ID()*1000 + round)
		return true
	})
}

func TestFaultScheduleDeterministicAcrossWorkers(t *testing.T) {
	plan := &FaultPlan{
		Seed: 7, DropProb: 0.3, DupProb: 0.2, DelayProb: 0.2, MaxDelay: 3,
		Crashes:    []CrashWindow{{Node: 5, From: 2, To: 4}, {Node: 17, From: 3}},
		RoundLimit: 60,
	}
	run := func(workers, batchSize int) ([]uint64, FaultStats, int) {
		net := NewNetwork(cycleGraph(101), 3)
		net.SetWorkers(workers)
		net.setBatch(batchSize)
		if err := net.SetFaultPlan(plan); err != nil {
			t.Fatal(err)
		}
		outs := make([]uint64, 101)
		RunStepped(net, faultHashProbe(6, outs))
		return outs, net.FaultStats(), net.Rounds()
	}
	base, baseStats, baseRounds := run(1, 0)
	if baseStats.Total() == 0 {
		t.Fatal("probe run injected no faults; test is vacuous")
	}
	for _, cfg := range [][2]int{{4, 0}, {4, 7}, {2, 13}} {
		outs, fs, rounds := run(cfg[0], cfg[1])
		if fs != baseStats {
			t.Fatalf("workers=%d batch=%d: fault stats %+v != %+v", cfg[0], cfg[1], fs, baseStats)
		}
		if rounds != baseRounds {
			t.Fatalf("workers=%d batch=%d: rounds %d != %d", cfg[0], cfg[1], rounds, baseRounds)
		}
		for v := range base {
			if outs[v] != base[v] {
				t.Fatalf("workers=%d batch=%d: node %d output %v != %v", cfg[0], cfg[1], v, outs[v], base[v])
			}
		}
	}
}

func TestFaultScheduleVariesAcrossRuns(t *testing.T) {
	// Consecutive runs on one network must see different fault schedules
	// (the run sequence number is part of the hash domain) — otherwise a
	// retry loop would deterministically hit the identical failure.
	net := NewNetwork(cycleGraph(101), 3)
	if err := net.SetFaultPlan(&FaultPlan{Seed: 7, DropProb: 0.3, RoundLimit: 60}); err != nil {
		t.Fatal(err)
	}
	a, b := make([]uint64, 101), make([]uint64, 101)
	RunStepped(net, faultHashProbe(6, a))
	RunStepped(net, faultHashProbe(6, b))
	same := true
	for v := range a {
		if a[v] != b[v] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("two consecutive runs observed the identical fault schedule")
	}
}

func TestCrashWindowFreezeAndRestart(t *testing.T) {
	net := NewNetwork(pathGraph(3), 1)
	if err := net.SetFaultPlan(&FaultPlan{
		Crashes:    []CrashWindow{{Node: 1, From: 2, To: 4}},
		RoundLimit: 50,
	}); err != nil {
		t.Fatal(err)
	}
	outs := make([]int, 3)
	RunStepped(net, broadcastRounds(5, outs))
	// Node 1 freezes during rounds 2 and 3: it misses those two steps (so
	// its five loop iterations stretch to round 7) and the messages sent
	// to it in rounds 2 and 3 are dropped. It hears both neighbors in
	// rounds 1, 4 and 5; the neighbors hear node 1's broadcasts of rounds
	// 1, 2 and 5 plus each hears nothing from the far end (degree 1).
	if got := outs[1]; got != 6 {
		t.Errorf("frozen node received %d, want 6", got)
	}
	if outs[0] != 3 || outs[2] != 3 {
		t.Errorf("neighbors received %v / %v, want 3 / 3", outs[0], outs[2])
	}
	fs := net.FaultStats()
	if fs.OfflineSteps != 2 {
		t.Errorf("OfflineSteps = %d, want 2", fs.OfflineSteps)
	}
	if fs.CrashDrops != 4 {
		t.Errorf("CrashDrops = %d, want 4", fs.CrashDrops)
	}
	if net.Rounds() != 7 {
		t.Errorf("rounds = %d, want 7", net.Rounds())
	}
}

func TestDelayedMessageArrivesLater(t *testing.T) {
	g := graph.New(2)
	g.MustEdge(0, 1)
	net := NewNetwork(g, 1)
	if err := net.SetFaultPlan(&FaultPlan{Seed: 3, DelayProb: 1, MaxDelay: 1, RoundLimit: 20}); err != nil {
		t.Fatal(err)
	}
	outs := make([]int, 2)
	RunStepped(net, roundProgram(func(ctx *Ctx, got *int, round int) bool {
		if round == 0 {
			if ctx.ID() == 0 {
				ctx.SendInt(0, 7)
			}
			return true
		}
		if v, ok := ctx.RecvInt(0); ok && *got == 0 {
			if v != 7 {
				outs[ctx.ID()] = -v
				return false
			}
			*got = round
		}
		if round == 4 {
			outs[ctx.ID()] = *got
			return false
		}
		return true
	}))
	// MaxDelay=1 makes every delay exactly one round: the round-1 message
	// arrives in round 2.
	if got := outs[1]; got != 2 {
		t.Fatalf("message arrived in round %v, want 2", outs[1])
	}
	if fs := net.FaultStats(); fs.Delays != 1 || fs.Drops != 0 {
		t.Fatalf("stats %+v, want exactly one delay", fs)
	}
}

// TestDelayedRecordYieldsToFreshInt pins one message per slot under
// faults: a record delayed into the round in which the same sender's
// fresh int arrives is cleared by the int, so the receiver sees the int
// alone and Recv reports nothing.
func TestDelayedRecordYieldsToFreshInt(t *testing.T) {
	g := graph.New(2)
	g.MustEdge(0, 1)
	net := NewNetwork(g, 1)
	// Message faults fire in round 1 only, where every message is delayed
	// by exactly one round.
	if err := net.SetFaultPlan(&FaultPlan{Seed: 3, DelayProb: 1, MaxDelay: 1, ToRound: 1, RoundLimit: 20}); err != nil {
		t.Fatal(err)
	}
	type seen struct {
		rec []int32
		v   int
		ok  bool
	}
	var got []seen
	RunStepped(net, roundProgram(func(ctx *Ctx, _ *struct{}, round int) bool {
		if ctx.ID() == 0 {
			switch round {
			case 0:
				ctx.Send(0, []int32{5, 6}) // delayed into round 2
			case 1:
				ctx.SendInt(0, 9) // delivered in round 2
			}
			return round < 1
		}
		if round > 0 {
			v, ok := ctx.RecvInt(0)
			got = append(got, seen{ctx.Recv(0), v, ok})
		}
		return round < 3
	}))
	if got[0].rec != nil || got[0].ok {
		t.Fatalf("round 1: receiver saw %+v, want nothing (the record is delayed)", got[0])
	}
	if got[1].rec != nil || !got[1].ok || got[1].v != 9 {
		t.Fatalf("round 2: receiver saw %+v, want the int 9 alone", got[1])
	}
	if got[2].rec != nil || got[2].ok {
		t.Fatalf("round 3: receiver saw %+v, want nothing", got[2])
	}
	if fs := net.FaultStats(); fs.Delays != 1 || fs.Total() != 1 {
		t.Fatalf("stats %+v, want exactly one delay", fs)
	}
}

func TestDuplicatedMessageArrivesTwice(t *testing.T) {
	g := graph.New(2)
	g.MustEdge(0, 1)
	net := NewNetwork(g, 1)
	if err := net.SetFaultPlan(&FaultPlan{Seed: 3, DupProb: 1, RoundLimit: 20}); err != nil {
		t.Fatal(err)
	}
	seen := 0
	RunStepped(net, roundProgram(func(ctx *Ctx, _ *struct{}, round int) bool {
		if round == 0 {
			if ctx.ID() == 0 {
				ctx.SendInt(0, 7)
			}
			return true
		}
		if _, ok := ctx.RecvInt(0); ok && ctx.ID() == 1 {
			seen++
		}
		return round < 4
	}))
	// One staged message, duplicated: delivered in round 1 and re-injected
	// in round 2. The duplicate is not re-faulted, so exactly twice.
	if seen != 2 {
		t.Fatalf("message seen %d times, want 2", seen)
	}
	if fs := net.FaultStats(); fs.Dups != 1 {
		t.Fatalf("stats %+v, want exactly one dup", fs)
	}
}

func TestRoundLimitForceHalts(t *testing.T) {
	net := NewNetwork(cycleGraph(8), 1)
	if err := net.SetFaultPlan(&FaultPlan{RoundLimit: 5}); err != nil {
		t.Fatal(err)
	}
	outs := slices.Repeat([]int{-1}, 8)
	RunStepped(net, roundProgram(func(ctx *Ctx, _ *struct{}, round int) bool {
		if round == 100 {
			outs[ctx.ID()] = round
			return false
		}
		ctx.BroadcastInt(1)
		return true
	}))
	if net.Rounds() != 5 {
		t.Fatalf("rounds = %d, want the limit 5", net.Rounds())
	}
	if fs := net.FaultStats(); fs.RoundLimited != 1 {
		t.Fatalf("RoundLimited = %d, want 1", fs.RoundLimited)
	}
	for v, o := range outs {
		if o != -1 {
			t.Fatalf("force-halted node %d has output %d, want the initial -1", v, o)
		}
	}
}

func TestNodePanicContained(t *testing.T) {
	net := NewNetwork(pathGraph(3), 1)
	if err := net.SetFaultPlan(&FaultPlan{RoundLimit: 10}); err != nil {
		t.Fatal(err)
	}
	outs := make([]string, 3)
	RunStepped(net, roundProgram(func(ctx *Ctx, _ *struct{}, round int) bool {
		switch round {
		case 0:
			ctx.BroadcastInt(1)
		case 1:
			if ctx.ID() == 1 {
				panic("fault-mangled state")
			}
			ctx.BroadcastInt(2)
		default:
			outs[ctx.ID()] = "done"
			return false
		}
		return true
	}))
	if outs[0] != "done" || outs[2] != "done" {
		t.Fatalf("healthy nodes did not finish: %q", outs)
	}
	if outs[1] != "" {
		t.Fatalf("panicked node has output %q, want the initial empty string", outs[1])
	}
	if fs := net.FaultStats(); fs.NodePanics != 1 {
		t.Fatalf("NodePanics = %d, want 1", fs.NodePanics)
	}
}

// TestPanicWithoutPlanStillPropagates: on a healthy network a node panic
// ends the run and reaches the caller with its original value, whether
// the panicking nodes run inline, on the coordinator or on helper
// workers, and the run leaves no worker goroutine behind.
func TestPanicWithoutPlanStillPropagates(t *testing.T) {
	const n = 4096 // far above parallelWork: every phase fans out to the pool
	cases := []struct {
		name    string
		n       int
		workers int
		panics  func(id int) bool
	}{
		{"one-worker", 2, 1, func(int) bool { return true }},
		{"every-64th-node", n, 4, func(id int) bool { return id%64 == 0 }},
		{"node-0-only", n, 4, func(id int) bool { return id == 0 }},
		{"last-node-only", n, 4, func(id int) bool { return id == n-1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net := NewNetwork(pathGraph(tc.n), 1)
			net.SetWorkers(tc.workers)
			net.setBatch(64) // one panicking node per batch in every-64th-node
			before := runtime.NumGoroutine()
			got := func() (r any) {
				defer func() { r = recover() }()
				RunStepped(net, roundProgram(func(ctx *Ctx, _ *struct{}, round int) bool {
					if round == 2 && tc.panics(ctx.ID()) {
						panic("protocol bug")
					}
					ctx.BroadcastInt(round)
					return round < 5
				}))
				return nil
			}()
			if got != "protocol bug" {
				t.Fatalf("caller recovered %v, want the node's panic value", got)
			}
			// A helper that has signalled its exit may still be unwinding;
			// allow it a moment, but a parked helper never leaves.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if after := runtime.NumGoroutine(); after > before {
				t.Fatalf("goroutines: %d before the run, %d after", before, after)
			}
		})
	}
}

func TestMessageFaultWindow(t *testing.T) {
	// Drops confined to rounds [2,2]: round 1 and 3+ deliver normally.
	net := NewNetwork(pathGraph(4), 1)
	if err := net.SetFaultPlan(&FaultPlan{Seed: 1, DropProb: 1, FromRound: 2, ToRound: 2, RoundLimit: 50}); err != nil {
		t.Fatal(err)
	}
	outs := make([]int, 4)
	RunStepped(net, broadcastRounds(3, outs))
	// Each node misses exactly its round-2 inbound messages (degree each).
	want := map[int]int{0: 2, 1: 4, 2: 4, 3: 2}
	for v, o := range outs {
		if o != want[v] {
			t.Fatalf("node %d received %v, want %d (outs=%v)", v, o, want[v], outs)
		}
	}
	if fs := net.FaultStats(); fs.Drops != 6 {
		t.Fatalf("Drops = %d, want 6 (one round of 6 staged messages)", fs.Drops)
	}
}

// TestStrictDeadSendsSuppressedUnderFaults pins the accounting satellite:
// the strict late-dead-send panic is a protocol-bug detector, and an
// attached FaultPlan voids it — injected drops and crashes legitimately
// make halt knowledge stale, so the same protocol that fails strict mode
// on a healthy network must complete when a plan is attached.
func TestStrictDeadSendsSuppressedUnderFaults(t *testing.T) {
	prev := StrictDeadSends()
	SetStrictDeadSends(true)
	defer SetStrictDeadSends(prev)

	// Node 0 halts in sweep 0; node 1 keeps talking to it for two rounds.
	// The round-2 send is a late dead send: strict mode panics on it.
	chatty := roundProgram(func(ctx *Ctx, _ *struct{}, round int) bool {
		if ctx.ID() == 0 {
			return false
		}
		if round < 2 {
			ctx.SendInt(0, round+1)
		}
		return round < 2
	})

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("strict mode did not panic on a late dead send without a plan")
			}
		}()
		RunStepped(NewNetwork(pathGraph(2), 1), chatty)
	}()

	// Same protocol, plan attached (its fault window never fires): the
	// strict check must stand down, and the run completes normally.
	net := NewNetwork(pathGraph(2), 1)
	if err := net.SetFaultPlan(&FaultPlan{Seed: 1, DropProb: 1, FromRound: 1000, ToRound: 1000, RoundLimit: 2000}); err != nil {
		t.Fatal(err)
	}
	RunStepped(net, chatty)
	if late := net.LateDeadSends(); len(late) != 1 {
		t.Fatalf("late dead sends still tracked for post-mortems, got %v", late)
	}
	if fs := net.FaultStats(); fs.Total() != 0 {
		t.Fatalf("inert window injected faults: %+v", fs)
	}
}
