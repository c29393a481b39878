package local

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"deltacolor/graph"
)

// intFloodStepped mirrors floodProtocol on the int fast path, with
// explicit Init/Step segments: irregular halting, per-node randomness,
// broadcast+fold. Each node writes its sum into out[ctx.ID()].
func intFloodStepped(rounds int, out []int) Stepped[[2]int] {
	return Stepped[[2]int]{
		Init: func(ctx *Ctx, s *[2]int) bool {
			s[0] = ctx.Rand().Intn(1000)
			if rounds+ctx.ID()%5 == 0 {
				out[ctx.ID()] = s[0]
				return false
			}
			ctx.BroadcastInt(s[0])
			return true
		},
		Step: func(ctx *Ctx, s *[2]int) bool {
			for p := 0; p < ctx.Degree(); p++ {
				if m, ok := ctx.RecvInt(p); ok {
					s[0] = (s[0] + m) % 1_000_003
				}
			}
			s[1]++
			if s[1] == rounds+ctx.ID()%5 {
				out[ctx.ID()] = s[0]
				return false
			}
			ctx.BroadcastInt(s[0])
			return true
		},
	}
}

// TestBatchSizeInvariance runs the same protocol under forced batch sizes
// (including size 1 and a size larger than the network) crossed with
// worker counts and requires identical outputs and round counts: batching
// is a scheduling detail, never a semantic one.
func TestBatchSizeInvariance(t *testing.T) {
	g := randomGraph(200, 0.03, 42)
	run := func(batchSize, workers int) ([]int, int) {
		net := NewNetwork(g, 7)
		net.setBatch(batchSize)
		net.SetWorkers(workers)
		outs := make([]int, g.N())
		RunStepped(net, floodProtocol(4, outs))
		return outs, net.Rounds()
	}
	base, baseRounds := run(0, 1)
	for _, bs := range []int{1, 3, 64, 1024} {
		for _, w := range []int{1, 3, 8} {
			outs, rounds := run(bs, w)
			if rounds != baseRounds {
				t.Fatalf("batch=%d workers=%d: rounds=%d, want %d", bs, w, rounds, baseRounds)
			}
			for v := range outs {
				if outs[v] != base[v] {
					t.Fatalf("batch=%d workers=%d: output[%d]=%v, want %v", bs, w, v, outs[v], base[v])
				}
			}
		}
	}
}

// TestSteppedMatchesCentralSimulation runs an irregular protocol
// (per-node randomness, staggered halts, 16-node batches) and checks its
// outputs and rounds against a central round-by-round simulation: node v
// broadcasts its running sum in rounds 1..k(v) = 4+v%5, folds in what its
// still-running neighbors sent, and halts after round k(v).
func TestSteppedMatchesCentralSimulation(t *testing.T) {
	const rounds, seed = 4, 7
	g := randomGraph(150, 0.04, 9)
	k := func(v int) int { return rounds + v%5 }
	sum := make([]int, g.N())
	wantRounds := 0
	for v := range sum {
		sum[v] = rand.New(rand.NewSource(seed*1_000_003 + int64(v))).Intn(1000)
		wantRounds = max(wantRounds, k(v))
	}
	for r := 1; r <= wantRounds; r++ {
		next := slices.Clone(sum)
		for v := range sum {
			if r > k(v) {
				continue
			}
			for _, u := range g.Neighbors(v) {
				if r <= k(u) {
					next[v] = (next[v] + sum[u]) % 1_000_003
				}
			}
		}
		sum = next
	}

	net := NewNetwork(g, seed)
	net.setBatch(16)
	outs := make([]int, g.N())
	RunStepped(net, intFloodStepped(rounds, outs))
	if net.Rounds() != wantRounds {
		t.Fatalf("rounds=%d, central simulation %d", net.Rounds(), wantRounds)
	}
	for v := range outs {
		if outs[v] != sum[v] {
			t.Fatalf("node %d: stepped=%v central=%v", v, outs[v], sum[v])
		}
	}
}

// TestIntPathDirectionalityAndOverwrite exercises SendInt slot placement
// and the cross-lane overwrite contract (one message per edge per round,
// last staging wins regardless of lane).
func TestIntPathDirectionalityAndOverwrite(t *testing.T) {
	g := pathGraph(2)
	net := NewNetwork(g, 1)
	outs := make([]int, 2)
	RunStepped(net, roundProgram(func(ctx *Ctx, _ *struct{}, round int) bool {
		switch {
		case round == 0 && ctx.ID() == 0:
			// Stage a record, overwrite with int: receiver must see the int.
			ctx.Send(0, []int32{-1})
			ctx.SendInt(0, 41)
		case round == 0:
			// Stage int, overwrite with a record: receiver must see the record.
			ctx.SendInt(0, 99)
			ctx.Send(0, []int32{42})
		case ctx.ID() == 0:
			if _, ok := ctx.RecvInt(0); ok {
				t.Error("node 0: overwritten int still delivered")
			}
			outs[0] = int(ctx.Recv(0)[0])
		default:
			if m := ctx.Recv(0); m != nil {
				t.Errorf("node 1: overwritten record %v still delivered", m)
			}
			outs[1], _ = ctx.RecvInt(0)
		}
		return round == 0
	}))
	if outs[0] != 42 || outs[1] != 41 {
		t.Fatalf("outs = %v, want [42 41]", outs)
	}
}

// TestIntPathOverflowPanics sends a value outside int32 on the int lane,
// by SendInt and by BroadcastInt: the run must panic with the value
// instead of truncating it.
func TestIntPathOverflowPanics(t *testing.T) {
	big := int(1) << 40
	for name, send := range map[string]func(*Ctx){
		"SendInt":      func(ctx *Ctx) { ctx.SendInt(0, big) },
		"BroadcastInt": func(ctx *Ctx) { ctx.BroadcastInt(big) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, fmt.Sprint(big)) || !strings.Contains(msg, "int32") {
					t.Fatalf("panic = %q, want the overflowing value and int32", msg)
				}
			}()
			RunStepped(NewNetwork(pathGraph(2), 1), oneRound(send))
		})
	}
}

// TestBroadcastDegreeZero pins the degree-0 contract: Broadcast and
// BroadcastInt are no-ops (no sender registration) and the run completes
// normally for isolated nodes.
func TestBroadcastDegreeZero(t *testing.T) {
	g := graph.New(3)
	g.MustEdge(0, 1) // node 2 stays isolated
	net := NewNetwork(g, 1)
	outs := make([]bool, g.N())
	RunStepped(net, roundProgram(func(ctx *Ctx, _ *struct{}, round int) bool {
		if round == 0 {
			ctx.Broadcast([]int32{1})
			ctx.BroadcastInt(7)
			if ctx.Degree() == 0 && ctx.sentAny {
				t.Error("degree-0 broadcast must not register the node as a sender")
			}
			return true
		}
		if ctx.Degree() > 0 {
			_, outs[ctx.ID()] = ctx.RecvInt(0)
		}
		return false
	}))
	if !outs[0] || !outs[1] || outs[2] {
		t.Fatalf("outs = %v, want [true true false]", outs)
	}
}

// TestIntPathDeadSendsAndStats checks the dead-send accounting, HaltRound
// bookkeeping and the 4-byte message costing on the int path.
func TestIntPathDeadSendsAndStats(t *testing.T) {
	g := pathGraph(2)
	net := NewNetwork(g, 1)
	tr := NewTracer(TraceCounters, 0)
	net.SetTracer(tr)
	RunStepped(net, roundProgram(func(ctx *Ctx, _ *struct{}, round int) bool {
		if ctx.ID() == 0 {
			return false // halts in sweep 0 => HaltRound 1
		}
		if round < 2 {
			ctx.SendInt(0, round+1)
		}
		return round < 2
	}))
	// Round 1 crossed the halt in flight (forgivable); round 2 is late.
	want := DeadSend{From: 1, Port: 0, To: 0, Round: 2, HaltRound: 1}
	if st := net.LastRunStats(); st.LateDeadSends != 1 || st.FirstLate != want {
		t.Fatalf("late dead sends %d, first %+v; want the round-2 send %+v only", st.LateDeadSends, st.FirstLate, want)
	}
	c := tr.Counters()
	if c.IntMessages != 2 || c.Words != 2 || c.MaxWords != 1 {
		t.Fatalf("counters = %+v, want 2 one-word int messages", c)
	}
	if c.Drops != 2 {
		t.Fatalf("counters.Drops = %d, want 2", c.Drops)
	}
}

// TestIntPathZeroAllocsPerRound is the allocation-regression gate for the
// tentpole: staging and delivering int-path messages must not allocate.
// The per-run setup cost is cancelled by differencing a short against a
// long run of the same protocol on the same graph.
func TestIntPathZeroAllocsPerRound(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	g := cycleGraph(512)
	measure := func(rounds int) float64 {
		return testing.AllocsPerRun(3, func() {
			net := NewNetwork(g, 1)
			RunStepped(net, intFloodStepped(rounds, make([]int, g.N())))
		})
	}
	short, long := measure(5), measure(105)
	perRound := (long - short) / 100
	if perRound > 0.05 {
		t.Fatalf("int path allocates %.2f allocs/round (short=%.0f long=%.0f), want 0", perRound, short, long)
	}
}

// TestSteppedNetworkReuseAndReseed reuses one network across stepped runs
// with different seeds: state must fully reset and randomness must follow
// the new seed, matching a freshly built network.
func TestSteppedNetworkReuseAndReseed(t *testing.T) {
	g := cycleGraph(40)
	reused := NewNetwork(g, 1)
	first, second, wantSecond := make([]int, g.N()), make([]int, g.N()), make([]int, g.N())
	RunStepped(reused, intFloodStepped(3, first))
	reused.Reseed(99)
	RunStepped(reused, intFloodStepped(3, second))
	RunStepped(NewNetwork(g, 99), intFloodStepped(3, wantSecond))
	for v := range second {
		if second[v] != wantSecond[v] {
			t.Fatalf("reseeded run diverges from fresh network at node %d: %v vs %v", v, second[v], wantSecond[v])
		}
	}
	same := true
	for v := range first {
		if first[v] != second[v] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should give different outputs")
	}
}
