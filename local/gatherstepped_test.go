package local

import (
	"runtime/debug"
	"testing"
)

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
