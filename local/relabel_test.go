package local

import (
	"math/rand"
	"reflect"
	"testing"

	"deltacolor/graph"
)

// withRelabel runs f under the given package-wide relabel default and
// restores the previous one.
func withRelabel(on bool, f func()) {
	prev := RelabelEnabled()
	SetRelabel(on)
	defer SetRelabel(prev)
	f()
}

// scrambledGraph returns a connected graph whose labels are deliberately
// scattered (a randomly relabeled cycle plus chords), so the locality
// order is guaranteed to differ from the identity.
func scrambledGraph(n int, seed int64) *graph.G {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.MustEdge(perm[i], perm[(i+1)%n])
	}
	for k := 0; k < n/4; k++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			g.MustEdge(u, v)
		}
	}
	return g
}

// TestRelabelActuallyRelabels guards the test premise: on a scrambled
// graph the internal order must differ from the identity (otherwise the
// suite below would vacuously pass).
func TestRelabelActuallyRelabels(t *testing.T) {
	net := NewNetwork(scrambledGraph(64, 3), 1)
	if !net.Relabeled() {
		t.Fatal("scrambled graph produced an identity locality order; invariance tests would be vacuous")
	}
	withRelabel(false, func() {
		if NewNetwork(scrambledGraph(64, 3), 1).Relabeled() {
			t.Fatal("SetRelabel(false) did not ablate the relabeling")
		}
	})
}

// TestRelabelIDAndPortSurface: with relabeling active, every node must
// still observe its external ID, the external port numbering (port p
// leads to g.Neighbors(id)[p]) and its input read by that ID, and the
// outputs it writes by ctx.ID() must land in external order.
func TestRelabelIDAndPortSurface(t *testing.T) {
	g := scrambledGraph(120, 7)
	net := NewNetwork(g, 1)
	if !net.Relabeled() {
		t.Fatal("premise: network must be relabeled")
	}
	n := g.N()
	inputs := make([]int, n)
	outs := make([]int, n)
	for v := 0; v < n; v++ {
		inputs[v] = v*10 + 1
		outs[v] = -1
	}
	seen := make([]bool, n)
	RunStepped(net, roundProgram(func(ctx *Ctx, _ *struct{}, round int) bool {
		id := ctx.ID()
		if round > 0 {
			for p := 0; p < ctx.Degree(); p++ {
				got, ok := ctx.RecvInt(p)
				if !ok || got != g.Neighbors(id)[p] {
					t.Errorf("node %d port %d: received %v (ok=%v), want neighbor %d", id, p, got, ok, g.Neighbors(id)[p])
				}
			}
			outs[id] = id
			return false
		}
		if id < 0 || id >= ctx.N() {
			t.Errorf("ctx.ID() = %d outside [0,%d)", id, ctx.N())
		}
		if seen[id] {
			t.Errorf("duplicate ctx.ID() %d", id)
		}
		seen[id] = true
		if ctx.Degree() != g.Deg(id) {
			t.Errorf("node %d: Degree() = %d, want %d", id, ctx.Degree(), g.Deg(id))
		}
		if got := inputs[ctx.ID()]; got != id*10+1 {
			t.Errorf("node %d: input = %d, want %d", id, got, id*10+1)
		}
		ctx.BroadcastInt(id)
		return true
	}))
	for v := 0; v < n; v++ {
		if outs[v] != v {
			t.Fatalf("output order broken: outs[%d] = %v", v, outs[v])
		}
	}
}

// runOutcome captures every observable surface of one run for the
// relabel-on/off equivalence checks.
type runOutcome struct {
	outs   []int
	rounds int
	dead   []DeadSend
	late   []DeadSend
	counts Counters
}

func captureRun[S any](g *graph.G, seed int64, prog func(out []int) Stepped[S]) runOutcome {
	net := NewNetwork(g, seed)
	net.TrackDeadSends(true)
	tr := NewTracer(TraceCounters, 0)
	net.SetTracer(tr)
	outs := make([]int, g.N())
	RunStepped(net, prog(outs))
	return runOutcome{
		outs:   outs,
		rounds: net.Rounds(),
		dead:   net.DeadSends(),
		late:   net.LateDeadSends(),
		counts: tr.Counters(),
	}
}

// TestRelabelInvariance: relabeling on vs off must produce identical
// outputs, round counts, dead-send reports (external From/To) and the
// tracer's message counts for a protocol that uses randomness, mixed
// message paths, and irregular halting.
func TestRelabelInvariance(t *testing.T) {
	proto := func(out []int) Stepped[roundState[int]] {
		return roundProgram(func(ctx *Ctx, sum *int, round int) bool {
			if round == 0 {
				*sum = ctx.Rand().Intn(1000)
			}
			for p := 0; p < ctx.Degree(); p++ {
				if v, ok := ctx.RecvInt(p); ok {
					*sum += v
				} else if m := ctx.Recv(p); m != nil {
					*sum += int(m[1])
				}
			}
			if round == 2+ctx.ID()%4 {
				out[ctx.ID()] = *sum
				return false
			}
			if round%2 == 0 {
				ctx.BroadcastInt(*sum)
			} else {
				ctx.Broadcast([]int32{int32(ctx.ID()), int32(*sum)})
			}
			return true
		})
	}
	for seed := int64(1); seed <= 3; seed++ {
		g := scrambledGraph(150, seed)
		var on, off runOutcome
		withRelabel(true, func() { on = captureRun(g, seed, proto) })
		withRelabel(false, func() { off = captureRun(g, seed, proto) })
		if !reflect.DeepEqual(on, off) {
			t.Fatalf("seed %d: relabel-on and relabel-off runs differ:\non:  %+v\noff: %+v", seed, on, off)
		}
		if len(on.dead) == 0 {
			t.Fatalf("seed %d: protocol staged no dead sends; DeadSend surface untested", seed)
		}
	}
}

// TestRelabelGatherStepped: the flooded ball must report external IDs and
// external adjacency regardless of relabeling.
func TestRelabelGatherStepped(t *testing.T) {
	g := scrambledGraph(80, 5)
	collect := func() []*Ball { return GatherStepped(NewNetwork(g, 1), 2) }
	var on, off []*Ball
	withRelabel(true, func() { on = collect() })
	withRelabel(false, func() { off = collect() })
	for v := range on {
		bOn, bOff := on[v], off[v]
		if bOn.Center != v {
			t.Fatalf("ball center %d at external index %d", bOn.Center, v)
		}
		if !reflect.DeepEqual(bOn, bOff) {
			t.Fatalf("node %d: relabeled ball differs from ablated ball", v)
		}
		// Every adjacency the ball reports must match the external graph.
		for i, adj := range bOn.Adj {
			id := int(bOn.IDs[i])
			if adj == nil {
				continue
			}
			if len(adj) != g.Deg(id) {
				t.Fatalf("ball of %d: node %d adjacency has %d entries, want %d", v, id, len(adj), g.Deg(id))
			}
			for j, u := range adj {
				if g.Neighbors(id)[j] != int(u) {
					t.Fatalf("ball of %d: node %d adjacency[%d] = %d, want %d", v, id, j, u, g.Neighbors(id)[j])
				}
			}
		}
	}
}

// TestRelabelQuotientNetwork: quotient construction consumes external
// member IDs and its own network relabels independently; outputs must be
// identical with relabeling on and off at both levels.
func TestRelabelQuotientNetwork(t *testing.T) {
	parent := scrambledGraph(90, 9)
	var groups [][]int
	for v := 0; v+2 < parent.N(); v += 9 {
		groups = append(groups, []int{v, v + 1, v + 2})
	}
	run := func() []int {
		out := make([]int, len(groups))
		RunStepped(QuotientNetwork(parent, groups, 3), roundProgram(func(ctx *Ctx, sum *int, round int) bool {
			if round == 0 {
				*sum = ctx.ID()
			}
			for p := 0; p < ctx.Degree(); p++ {
				if m, ok := ctx.RecvInt(p); ok {
					*sum += m
				}
			}
			if round == 2 {
				out[ctx.ID()] = *sum
				return false
			}
			ctx.BroadcastInt(*sum)
			return true
		}))
		return out
	}
	var on, off []int
	withRelabel(true, func() { on = run() })
	withRelabel(false, func() { off = run() })
	if !reflect.DeepEqual(on, off) {
		t.Fatalf("quotient outputs differ:\non:  %v\noff: %v", on, off)
	}
	if len(on) != len(groups) {
		t.Fatalf("quotient has %d outputs, want one per group (%d)", len(on), len(groups))
	}
}

// TestRelabelStepped: the executor keeps its per-node state by internal
// index; outputs and rounds must nevertheless be identical to the
// ablated run.
func TestRelabelStepped(t *testing.T) {
	g := scrambledGraph(130, 11)
	run := func() ([]int, int) {
		net := NewNetwork(g, 7)
		outs := make([]int, g.N())
		RunStepped(net, intFloodStepped(3, outs))
		return outs, net.Rounds()
	}
	var onOuts, offOuts []int
	var onRounds, offRounds int
	withRelabel(true, func() { onOuts, onRounds = run() })
	withRelabel(false, func() { offOuts, offRounds = run() })
	if onRounds != offRounds || !reflect.DeepEqual(onOuts, offOuts) {
		t.Fatalf("stepped relabel-on differs from relabel-off (rounds %d vs %d)", onRounds, offRounds)
	}
}
