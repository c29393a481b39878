package local

import (
	"slices"
	"testing"

	"deltacolor/graph"
)

func pathGraph(n int) *graph.G {
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		g.MustEdge(i, i+1)
	}
	return g
}

func cycleGraph(n int) *graph.G {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.MustEdge(i, (i+1)%n)
	}
	return g
}

// roundState is the per-node state of a roundProgram: the round counter
// and the test's own state.
type roundState[S any] struct {
	round int
	s     S
}

// roundProgram writes a test protocol as one round-indexed body: body
// runs with round = 0 as Init and with round = r ≥ 1 after the r-th
// delivery (reading what was staged in round r-1), keeps its cross-round
// state in s, and returns false to halt.
func roundProgram[S any](body func(ctx *Ctx, s *S, round int) bool) Stepped[roundState[S]] {
	return Stepped[roundState[S]]{
		Init: func(ctx *Ctx, st *roundState[S]) bool { return body(ctx, &st.s, 0) },
		Step: func(ctx *Ctx, st *roundState[S]) bool {
			st.round++
			return body(ctx, &st.s, st.round)
		},
	}
}

// oneRound is the single-round test program: stage runs in Init, and
// every node halts after the first delivery.
func oneRound(stage func(ctx *Ctx)) Stepped[roundState[struct{}]] {
	return roundProgram(func(ctx *Ctx, _ *struct{}, round int) bool {
		if round == 0 {
			stage(ctx)
		}
		return round == 0
	})
}

func TestRunNoRounds(t *testing.T) {
	g := pathGraph(4)
	net := NewNetwork(g, 1)
	outs := RunStepped(net, roundProgram(func(ctx *Ctx, _ *struct{}, _ int) bool {
		ctx.SetOutput(ctx.ID() * 2)
		return false
	}))
	if net.Rounds() != 0 {
		t.Fatalf("rounds=%d", net.Rounds())
	}
	for v, o := range outs {
		if o.(int) != v*2 {
			t.Fatalf("output[%d]=%v", v, o)
		}
	}
}

func TestMessageDelivery(t *testing.T) {
	g := pathGraph(3)
	net := NewNetwork(g, 1)
	outs := RunStepped(net, roundProgram(func(ctx *Ctx, _ *struct{}, round int) bool {
		if round == 0 {
			ctx.Broadcast([]int32{int32(ctx.ID())})
			return true
		}
		sum := 0
		for p := 0; p < ctx.Degree(); p++ {
			if m := ctx.Recv(p); m != nil {
				sum += int(m[0])
			}
		}
		ctx.SetOutput(sum)
		return false
	}))
	if net.Rounds() != 1 {
		t.Fatalf("rounds=%d", net.Rounds())
	}
	// Node 0 hears 1; node 1 hears 0+2; node 2 hears 1.
	want := []int{1, 2, 1}
	for v := range want {
		if outs[v].(int) != want[v] {
			t.Fatalf("node %d heard %v, want %d", v, outs[v], want[v])
		}
	}
}

func TestPortDirectionality(t *testing.T) {
	// Each node sends its ID on port 0 only; the receiver must see it on
	// the reverse port.
	g := graph.New(2)
	g.MustEdge(0, 1)
	net := NewNetwork(g, 1)
	outs := RunStepped(net, roundProgram(func(ctx *Ctx, _ *struct{}, round int) bool {
		if round == 0 {
			ctx.Send(0, []int32{int32(ctx.ID() + 100)})
			return true
		}
		ctx.SetOutput(int(ctx.Recv(0)[0]))
		return false
	}))
	if outs[0].(int) != 101 || outs[1].(int) != 100 {
		t.Fatalf("outs=%v", outs)
	}
}

func TestHaltedNodeMessagesStillDelivered(t *testing.T) {
	g := pathGraph(2)
	net := NewNetwork(g, 1)
	outs := RunStepped(net, roundProgram(func(ctx *Ctx, _ *struct{}, round int) bool {
		if round == 0 {
			if ctx.ID() == 0 {
				ctx.Broadcast([]int32{7, 8})
				return false // halt immediately after staging
			}
			return true
		}
		ctx.SetOutput(ctx.Recv(0))
		return false
	}))
	if got := outs[1].([]int32); !slices.Equal(got, []int32{7, 8}) {
		t.Fatalf("node 1 got %v", got)
	}
}

func TestMultiRoundFlood(t *testing.T) {
	// Count distinct IDs heard after r rounds of flooding on a cycle.
	n, r := 12, 3
	g := cycleGraph(n)
	net := NewNetwork(g, 1)
	outs := RunStepped(net, roundProgram(func(ctx *Ctx, known *map[int32]bool, round int) bool {
		if round == 0 {
			*known = map[int32]bool{int32(ctx.ID()): true}
		}
		for p := 0; p < ctx.Degree(); p++ {
			for _, id := range ctx.Recv(p) {
				(*known)[id] = true
			}
		}
		if round == r {
			ctx.SetOutput(len(*known))
			return false
		}
		snapshot := make([]int32, 0, len(*known))
		for id := range *known {
			snapshot = append(snapshot, id)
		}
		ctx.Broadcast(snapshot)
		return true
	}))
	if net.Rounds() != r {
		t.Fatalf("rounds=%d", net.Rounds())
	}
	for v, o := range outs {
		if o.(int) != 2*r+1 {
			t.Fatalf("node %d knows %v ids, want %d", v, o, 2*r+1)
		}
	}
}

func TestRunSteppedWithInput(t *testing.T) {
	g := pathGraph(3)
	net := NewNetwork(g, 1)
	inputs := []any{10, 20, 30}
	outs := RunSteppedWithInput(net, roundProgram(func(ctx *Ctx, _ *struct{}, _ int) bool {
		ctx.SetOutput(ctx.Input().(int) + 1)
		return false
	}), inputs)
	for v := range outs {
		if outs[v].(int) != inputs[v].(int)+1 {
			t.Fatal("inputs not wired")
		}
	}
}

func TestRandDeterministicPerSeed(t *testing.T) {
	g := pathGraph(4)
	draw := func(seed int64) []int64 {
		net := NewNetwork(g, seed)
		outs := RunStepped(net, roundProgram(func(ctx *Ctx, _ *struct{}, _ int) bool {
			ctx.SetOutput(ctx.Rand().Int63())
			return false
		}))
		vals := make([]int64, len(outs))
		for i, o := range outs {
			vals[i] = o.(int64)
		}
		return vals
	}
	a, b, c := draw(1), draw(1), draw(2)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must reproduce")
		}
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should differ")
	}
}

func TestStaggeredHalts(t *testing.T) {
	// Node v halts after v rounds; later nodes must keep making progress.
	g := cycleGraph(6)
	net := NewNetwork(g, 1)
	outs := RunStepped(net, roundProgram(func(ctx *Ctx, _ *struct{}, round int) bool {
		if round < ctx.ID() {
			return true
		}
		ctx.SetOutput(ctx.ID())
		return false
	}))
	if net.Rounds() < 5 {
		t.Fatalf("rounds=%d", net.Rounds())
	}
	for v, o := range outs {
		if o.(int) != v {
			t.Fatal("outputs wrong")
		}
	}
}

func TestGatherStepped(t *testing.T) {
	g := cycleGraph(10)
	net := NewNetwork(g, 1)
	balls := GatherStepped(net, 3)
	if net.Rounds() != 3 {
		t.Fatalf("rounds=%d", net.Rounds())
	}
	b0 := balls[0]
	// Existence known for distance <= 3: nodes 7,8,9,0,1,2,3 on C10.
	if len(b0.IDs) != 7 {
		t.Fatalf("node 0 knows %d nodes, want 7", len(b0.IDs))
	}
	adj := map[int][]int32{}
	for i, id := range b0.IDs {
		adj[int(id)] = b0.Adj[i]
	}
	// Adjacency complete for distance <= 2.
	for _, u := range []int{8, 9, 0, 1, 2} {
		if len(adj[u]) != 2 {
			t.Fatalf("adjacency of %d incomplete: %v", u, adj[u])
		}
	}
}

func TestAccountant(t *testing.T) {
	var a Accountant
	a.Charge("x", 3)
	a.Charge("y", 4)
	if a.Total() != 7 {
		t.Fatalf("total=%d", a.Total())
	}
	if len(a.Phases()) != 2 {
		t.Fatal("phases")
	}
	if s := a.String(); s != "x:3 + y:4 = 7" {
		t.Fatalf("string=%q", s)
	}
}
