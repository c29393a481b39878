package local

import (
	"reflect"
	"runtime/debug"
	"testing"

	"deltacolor/graph"
)

// TestFloodSteppedMatchesCentral checks FloodStepped against the central
// multi-source BFS: a node is reached iff its distance to the nearest
// source is within the radius.
func TestFloodSteppedMatchesCentral(t *testing.T) {
	cases := []struct {
		name    string
		g       *graph.G
		sources []int
	}{
		{"path-one-end", pathGraph(30), []int{0}},
		{"path-middle", pathGraph(31), []int{15}},
		{"cycle-two", cycleGraph(40), []int{0, 11}},
		{"rand-few", randomGraph(80, 0.04, 5), []int{3, 41, 77}},
		{"rand-disconnected", randomGraph(60, 0.02, 6), []int{0, 10}},
	}
	for _, tc := range cases {
		n := tc.g.N()
		src := make([]bool, n)
		for _, s := range tc.sources {
			src[s] = true
		}
		dist, _ := tc.g.MultiSourceDist(tc.sources)
		for _, radius := range []int{0, 1, 2, 5, 9} {
			net := NewNetwork(tc.g, 1)
			reached := FloodStepped(net, src, radius)
			if radius > 0 && net.Rounds() != radius {
				t.Fatalf("%s r=%d: rounds=%d", tc.name, radius, net.Rounds())
			}
			for v := 0; v < n; v++ {
				want := dist[v] >= 0 && dist[v] <= radius
				if reached[v] != want {
					t.Fatalf("%s r=%d node %d: reached=%v, dist=%d", tc.name, radius, v, reached[v], dist[v])
				}
			}
		}
	}
	// Empty source set and radius 0 short-circuit without running rounds.
	net := NewNetwork(pathGraph(10), 1)
	if out := FloodStepped(net, make([]bool, 10), 5); net.Rounds() != 0 {
		t.Fatalf("empty sources ran %d rounds (%v)", net.Rounds(), out)
	}
}

// TestFloodSteppedZeroAllocsPerRound is the allocation-regression gate
// for the flood kernel: its messages are single ints on the fast path, so
// steady-state rounds must not allocate. Setup cost is cancelled by
// differencing a short against a long flood of the same protocol.
func TestFloodSteppedZeroAllocsPerRound(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	g := cycleGraph(512)
	src := make([]bool, 512)
	src[0] = true
	measure := func(radius int) float64 {
		return testing.AllocsPerRun(3, func() {
			net := NewNetwork(g, 1)
			FloodStepped(net, src, radius)
		})
	}
	short, long := measure(5), measure(105)
	perRound := (long - short) / 100
	if perRound > 0.05 {
		t.Fatalf("flood allocates %.2f allocs/round (short=%.0f long=%.0f), want 0", perRound, short, long)
	}
}

// TestGatherSteppedAllocsBounded bounds the stepped gather's allocation
// rate. Gather payloads are variable-length boxed slices that receivers
// alias into, so rounds cannot be allocation-free by design — but the
// per-node-round allocation count must stay a small constant (the packed
// frontier buffer plus lane boxing), nothing proportional to ball size
// beyond the retained data itself.
func TestGatherSteppedAllocsBounded(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	g := cycleGraph(256)
	measure := func(radius int) float64 {
		return testing.AllocsPerRun(3, func() {
			net := NewNetwork(g, 1)
			GatherStepped(net, radius)
		})
	}
	short, long := measure(4), measure(24)
	perNodeRound := (long - short) / (20 * 256)
	// On a cycle every round ships one two-record frontier per node: the
	// packed buffer, its boxing, and amortized state growth. Anything past
	// ~6 allocs/node-round means a regression.
	if perNodeRound > 6 {
		t.Fatalf("stepped gather allocates %.1f allocs/node-round (short=%.0f long=%.0f)", perNodeRound, short, long)
	}
}

// TestCollectComponentsMatchesCentral pins CollectComponents against
// graph.ConnectedComponents: identical component labels and count on
// connected, disconnected and isolated-node graphs, with strict dead-send
// mode proving the announce-then-halt protocol stages no late sends.
func TestCollectComponentsMatchesCentral(t *testing.T) {
	prev := StrictDeadSends()
	SetStrictDeadSends(true)
	defer SetStrictDeadSends(prev)

	graphs := []struct {
		name string
		g    *graph.G
	}{
		{"path-20", pathGraph(20)},
		{"cycle-33", cycleGraph(33)},
		{"rand-sparse", randomGraph(120, 0.01, 9)},
		{"rand-medium", randomGraph(80, 0.05, 10)},
		{"isolated-mix", func() *graph.G {
			g := graph.New(25)
			g.MustEdge(1, 2)
			g.MustEdge(2, 3)
			g.MustEdge(10, 11)
			g.MustEdge(20, 21)
			g.MustEdge(21, 22)
			g.MustEdge(22, 20)
			return g
		}()},
		{"all-isolated", graph.New(9)},
	}
	for _, tc := range graphs {
		wantComp, wantCount := tc.g.ConnectedComponents()
		net := NewNetwork(tc.g, 1)
		net.TrackDeadSends(true)
		comp, count, ok := CollectComponents(net)
		if !ok {
			t.Fatalf("%s: unexpected cap overflow", tc.name)
		}
		if count != wantCount {
			t.Fatalf("%s: count=%d, want %d", tc.name, count, wantCount)
		}
		if !reflect.DeepEqual(comp, wantComp) {
			t.Fatalf("%s: comp=%v, want %v", tc.name, comp, wantComp)
		}
		if late := net.LateDeadSends(); len(late) != 0 {
			t.Fatalf("%s: late dead sends %v — DONE protocol leaked", tc.name, late)
		}
	}
}

// TestCollectComponentsCapFallback checks the overflow path: a component
// larger than componentCap makes CollectComponents report ok=false (and a
// nil assignment) so the caller falls back to a central traversal. The
// star reaches the cap in one round, keeping the test fast.
func TestCollectComponentsCapFallback(t *testing.T) {
	prev := StrictDeadSends()
	SetStrictDeadSends(true)
	defer SetStrictDeadSends(prev)

	n := componentCap + 5
	g := graph.New(n + 1)
	for v := 1; v <= n; v++ {
		g.MustEdge(0, v)
	}
	net := NewNetwork(g, 1)
	comp, count, ok := CollectComponents(net)
	if ok || comp != nil || count != 0 {
		t.Fatalf("capped collection returned ok=%v comp=%v count=%d, want failure", ok, comp != nil, count)
	}
}
