package local

import (
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
// rate. Gather payloads are variable-length records that receivers alias
// into, so rounds cannot be allocation-free by design — but the
// per-node-round allocation count must stay a small constant (the packed
// frontier buffer), nothing proportional to ball size beyond the retained
// data itself.
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
	// On a cycle every round ships one two-entry frontier per node: the
	// packed buffer and amortized state growth. Anything past ~6
	// allocs/node-round means a regression.
	if perNodeRound > 6 {
		t.Fatalf("stepped gather allocates %.1f allocs/node-round (short=%.0f long=%.0f)", perNodeRound, short, long)
	}
}
