package local

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"deltacolor/graph"
)

// floodProtocol is a deliberately irregular workload: node v runs v%5+1
// extra rounds past a shared flooding phase, uses its private randomness,
// and halts at different times, exercising halts, active sets and parking.
func floodProtocol(rounds int) Stepped[roundState[int]] {
	return roundProgram(func(ctx *Ctx, sum *int, round int) bool {
		if round == 0 {
			*sum = ctx.Rand().Intn(1000)
		}
		for p := 0; p < ctx.Degree(); p++ {
			if m, ok := ctx.Recv(p).(int); ok {
				*sum += m
			}
		}
		if round == rounds+ctx.ID()%5 {
			ctx.SetOutput(*sum)
			return false
		}
		ctx.Broadcast(*sum)
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
	run := func(shards int) ([]any, int) {
		net := NewNetwork(g, 7)
		net.setShards(shards)
		outs := RunStepped(net, floodProtocol(4))
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
	net.setShards(4)
	outs := RunStepped(net, roundProgram(func(ctx *Ctx, got *int, round int) bool {
		if round > 0 {
			for p := 0; p < ctx.Degree(); p++ {
				*got += ctx.Recv(p).(int)
			}
		}
		if round == 3 {
			ctx.SetOutput(*got)
			return false
		}
		ctx.Broadcast(ctx.ID())
		return true
	}))
	for v := 0; v < n; v++ {
		left, right := (v-1+n)%n, (v+1)%n
		if outs[v].(int) != 3*(left+right) {
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
	net.setShards(4)
	outs := RunStepped(net, roundProgram(func(ctx *Ctx, _ *struct{}, round int) bool {
		if m := ctx.Recv(0); m != nil && ctx.ID() == 1 {
			ctx.SetOutput(m)
		}
		if round == 5 {
			return false
		}
		if ctx.ID() == 0 && round == 3 {
			ctx.Send(0, "ping")
		}
		return true
	}))
	if outs[1] != "ping" {
		t.Fatalf("node 1 got %v", outs[1])
	}
}

func TestRunWithInputLengthMismatch(t *testing.T) {
	g := pathGraph(3)
	net := NewNetwork(g, 1)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic for short inputs")
		}
		msg := fmt.Sprint(r)
		if !strings.Contains(msg, "len(inputs) = 2") || !strings.Contains(msg, "want 3") {
			t.Fatalf("unhelpful panic message: %q", msg)
		}
	}()
	RunSteppedWithInput(net, oneRound(func(*Ctx) {}), []any{1, 2})
}

func TestDeadSendTracking(t *testing.T) {
	g := pathGraph(2)
	net := NewNetwork(g, 1)
	net.TrackDeadSends(true)
	net.EnableMessageStats()
	RunStepped(net, roundProgram(func(ctx *Ctx, _ *struct{}, round int) bool {
		switch {
		case ctx.ID() == 0:
			return false // halt immediately
		case round == 0:
			ctx.Send(0, "are you there?")
		case round == 1:
			ctx.Send(0, "hello?")
		}
		return round < 2
	}))
	dead := net.DeadSends()
	if len(dead) != 2 {
		t.Fatalf("dead sends = %v, want 2 records", dead)
	}
	for i, d := range dead {
		if d.From != 1 || d.To != 0 || d.Port != 0 || d.Round != i+1 {
			t.Fatalf("dead[%d] = %+v", i, d)
		}
	}
	if got := dead[0].String(); !strings.Contains(got, "node 1 sent to halted node 0") {
		t.Fatalf("String() = %q", got)
	}
	if net.MessageStats().Dropped != 2 {
		t.Fatalf("stats.Dropped = %d, want 2", net.MessageStats().Dropped)
	}
	// A clean follow-up run on the same network must not inherit the
	// previous run's records.
	RunStepped(net, oneRound(func(ctx *Ctx) { ctx.Broadcast("fine") }))
	if ds := net.DeadSends(); ds != nil {
		t.Fatalf("stale dead sends after clean run: %v", ds)
	}
}

func TestDeadSendTrackingOffByDefault(t *testing.T) {
	g := pathGraph(2)
	net := NewNetwork(g, 1)
	RunStepped(net, roundProgram(func(ctx *Ctx, _ *struct{}, round int) bool {
		if ctx.ID() == 0 {
			return false
		}
		if round == 0 {
			ctx.Send(0, "dropped silently")
		}
		return round == 0
	}))
	if ds := net.DeadSends(); ds != nil {
		t.Fatalf("tracking off, got %v", ds)
	}
}

func TestRunStats(t *testing.T) {
	g := cycleGraph(8)
	net := NewNetwork(g, 1)
	RunStepped(net, floodProtocol(2))
	st := net.LastRunStats()
	if st.Nodes != 8 || st.Rounds != net.Rounds() || st.Rounds == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.WallTime <= 0 || st.RoundsPerSec <= 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestReversePortTables cross-checks the linear-time construction against
// the definition on assorted graph shapes.
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
			for p, u := range net.ports[v] {
				q := int(net.rev[v][p])
				if net.ports[u][q] != v {
					t.Fatalf("%s: rev[%d][%d]=%d but ports[%d][%d]=%d",
						name, v, p, q, u, q, net.ports[u][q])
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
	net.setShards(3)
	first := RunStepped(net, floodProtocol(3))
	second := RunStepped(net, floodProtocol(3))
	for v := range first {
		if first[v] != second[v] {
			t.Fatalf("run not reproducible on reused network at node %d: %v vs %v", v, first[v], second[v])
		}
	}
}
