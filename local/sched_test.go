package local

import (
	"math/rand"
	"strings"
	"testing"

	"deltacolor/graph"
)

// floodProtocol is a deliberately irregular workload on the record lane:
// node v runs v%5+1 extra rounds past a shared flooding phase, uses its
// private randomness, and halts at different times, exercising halts,
// active sets and parking. Each node writes its sum into out[ctx.ID()].
func floodProtocol(rounds int, out []int) Stepped[roundState[int]] {
	return roundProgram(func(ctx *Ctx, sum *int, round int) bool {
		if round == 0 {
			*sum = ctx.Rand().Intn(1000)
		}
		for p := 0; p < ctx.Degree(); p++ {
			if m := ctx.Recv(p); m != nil {
				*sum = (*sum + int(m[0])) % 1_000_003
			}
		}
		if round == rounds+ctx.ID()%5 {
			out[ctx.ID()] = *sum
			return false
		}
		ctx.Broadcast([]int32{int32(*sum)})
		return true
	})
}

func randomGraph(n int, p float64, seed int64) *graph.G {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.MustEdge(u, v)
			}
		}
	}
	return g
}

// TestShardCountInvariance runs the same protocol under 1, 3 and 8 shards
// and requires identical outputs and round counts: sharding is a scheduling
// detail, never a semantic one.
func TestShardCountInvariance(t *testing.T) {
	g := randomGraph(200, 0.03, 42)
	run := func(shards int) ([]int, int) {
		net := NewNetwork(g, 7)
		net.SetWorkers(shards)
		outs := make([]int, g.N())
		RunStepped(net, floodProtocol(4, outs))
		return outs, net.Rounds()
	}
	base, baseRounds := run(1)
	for _, k := range []int{3, 8} {
		outs, rounds := run(k)
		if rounds != baseRounds {
			t.Fatalf("shards=%d: rounds=%d, want %d", k, rounds, baseRounds)
		}
		for v := range outs {
			if outs[v] != base[v] {
				t.Fatalf("shards=%d: output[%d]=%v, want %v", k, v, outs[v], base[v])
			}
		}
	}
}

// TestParallelDeliveryLargeRound pushes past the serial-delivery threshold
// (>256 senders) with multiple shards so the worker fan-out actually runs,
// and checks every delivery slot.
func TestParallelDeliveryLargeRound(t *testing.T) {
	n := 2000
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.MustEdge(i, (i+1)%n)
	}
	net := NewNetwork(g, 1)
	net.SetWorkers(4)
	outs := make([]int, n)
	RunStepped(net, roundProgram(func(ctx *Ctx, got *int, round int) bool {
		if round > 0 {
			for p := 0; p < ctx.Degree(); p++ {
				*got += int(ctx.Recv(p)[0])
			}
		}
		if round == 3 {
			outs[ctx.ID()] = *got
			return false
		}
		ctx.Broadcast([]int32{int32(ctx.ID())})
		return true
	}))
	for v := 0; v < n; v++ {
		left, right := (v-1+n)%n, (v+1)%n
		if outs[v] != 3*(left+right) {
			t.Fatalf("node %d got %v, want %d", v, outs[v], 3*(left+right))
		}
	}
	if net.Rounds() != 3 {
		t.Fatalf("rounds=%d", net.Rounds())
	}
}

// TestActiveSetSparseRounds has a single speaking pair in a large network:
// delivery must still reach them (the active set must not drop anyone).
func TestActiveSetSparseRounds(t *testing.T) {
	n := 1000
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		g.MustEdge(i, i+1)
	}
	net := NewNetwork(g, 1)
	net.SetWorkers(4)
	outs := make([]int, n)
	RunStepped(net, roundProgram(func(ctx *Ctx, _ *struct{}, round int) bool {
		if m := ctx.Recv(0); m != nil && ctx.ID() == 1 {
			outs[1] = int(m[0])
		}
		if round == 5 {
			return false
		}
		if ctx.ID() == 0 && round == 3 {
			ctx.Send(0, []int32{42})
		}
		return true
	}))
	if outs[1] != 42 {
		t.Fatalf("node 1 got %v", outs[1])
	}
}

func TestDeadSendTracking(t *testing.T) {
	g := pathGraph(2)
	net := NewNetwork(g, 1)
	tr := NewTracer(TraceCounters, 0)
	net.SetTracer(tr)
	RunStepped(net, roundProgram(func(ctx *Ctx, _ *struct{}, round int) bool {
		switch {
		case ctx.ID() == 0:
			return false // halt immediately
		case round == 0:
			ctx.Send(0, []int32{1})
		case round == 1:
			ctx.Send(0, []int32{2})
		}
		return round < 2
	}))
	// Both sends are dropped; the round-1 one crossed the halt in flight,
	// and the round-2 one is late.
	st := net.LastRunStats()
	if d := st.FirstLate; st.LateDeadSends != 1 || d.From != 1 || d.To != 0 || d.Port != 0 || d.Round != 2 {
		t.Fatalf("late dead sends %d, first %+v; want the round-2 send only", st.LateDeadSends, d)
	}
	if got := st.FirstLate.String(); !strings.Contains(got, "node 1 sent to halted node 0") {
		t.Fatalf("String() = %q", got)
	}
	if got := tr.Counters().Drops; got != 2 {
		t.Fatalf("counters.Drops = %d, want 2", got)
	}
	// A clean follow-up run on the same network must not inherit the
	// previous run's record.
	RunStepped(net, oneRound(func(ctx *Ctx) { ctx.Broadcast([]int32{0}) }))
	if st := net.LastRunStats(); st.LateDeadSends != 0 || st.FirstLate != (DeadSend{}) {
		t.Fatalf("stale late dead sends after clean run: %d, first %+v", st.LateDeadSends, st.FirstLate)
	}
}

func TestRunStats(t *testing.T) {
	g := cycleGraph(8)
	net := NewNetwork(g, 1)
	RunStepped(net, floodProtocol(2, make([]int, g.N())))
	st := net.LastRunStats()
	if st.Nodes != 8 || st.Rounds != net.Rounds() || st.Rounds == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.WallTime <= 0 || st.RoundsPerSec <= 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestReversePortTables cross-checks the linear-time construction of the
// flat port tables against the definition on assorted graph shapes: port
// p of v is its p-th external neighbor, and its receiver slot lies in the
// neighbor's slot range on the port that leads back to v.
func TestReversePortTables(t *testing.T) {
	graphs := map[string]*graph.G{
		"path":   pathGraph(17),
		"cycle":  cycleGraph(12),
		"random": randomGraph(80, 0.1, 3),
		"dense":  randomGraph(40, 0.9, 4),
	}
	star := graph.New(9)
	for i := 1; i < 9; i++ {
		star.MustEdge(0, i)
	}
	graphs["star"] = star
	for name, g := range graphs {
		net := NewNetwork(g, 1)
		for v := 0; v < g.N(); v++ {
			for p := 0; p < net.off[v+1]-net.off[v]; p++ {
				e := net.off[v] + p
				u, slot := int(net.portsFlat[e]), int(net.slotFlat[e])
				if want := g.Neighbors(net.toExt(v))[p]; net.toExt(u) != want {
					t.Fatalf("%s: port %d of %d leads to %d, want %d", name, p, net.toExt(v), net.toExt(u), want)
				}
				if slot < net.off[u] || slot >= net.off[u+1] {
					t.Fatalf("%s: slotFlat[%d]=%d outside %d's slots [%d, %d)", name, e, slot, u, net.off[u], net.off[u+1])
				}
				if back := int(net.portsFlat[slot]); back != v {
					t.Fatalf("%s: port %d of %d writes slot %d, but port %d of %d leads to %d", name, p, v, slot, slot-net.off[u], u, back)
				}
			}
		}
	}
}

// TestNetworkReuse runs two different protocols back to back on one
// network: all scheduler state must reset between runs.
func TestNetworkReuse(t *testing.T) {
	g := cycleGraph(30)
	net := NewNetwork(g, 5)
	net.SetWorkers(3)
	first, second := make([]int, g.N()), make([]int, g.N())
	RunStepped(net, floodProtocol(3, first))
	RunStepped(net, floodProtocol(3, second))
	for v := range first {
		if first[v] != second[v] {
			t.Fatalf("run not reproducible on reused network at node %d: %v vs %v", v, first[v], second[v])
		}
	}
}
