package dist

import (
	"math/rand"
	"testing"

	"deltacolor/graph"
	"deltacolor/graph/gen"
	"deltacolor/local"
)

// strictGraphs are assorted topologies for the strict dead-send check,
// including ones where the mixed int/record protocols (MIS, randomized
// list coloring) halt early.
func strictGraphs(t *testing.T) map[string]*graph.G {
	t.Helper()
	return map[string]*graph.G{
		"path":  gen.Path(60),
		"cycle": gen.Cycle(45),
		"rr4":   gen.MustRandomRegular(rand.New(rand.NewSource(8)), 128, 4),
		"k12":   gen.Complete(12),
	}
}

// TestStrictCleanPrimitives runs every ported primitive under strict
// dead-send checking: the halting announcements (bye flags) must keep
// them free of late dead sends on every topology.
func TestStrictCleanPrimitives(t *testing.T) {
	local.SetStrictDeadSends(true)
	defer local.SetStrictDeadSends(false)
	for _, g := range strictGraphs(t) {
		n := g.N()
		net := local.NewNetwork(g, 21)
		base, k, _ := Linial(net)
		if _, _, err := ReduceColors(local.NewNetwork(g, 22), base, k, g.MaxDegree()+1); err != nil {
			t.Fatal(err)
		}
		active := make([]bool, n)
		for v := range active {
			active[v] = v%3 != 0
		}
		LubyMIS(local.NewNetwork(g, 23), active)

		partial := make([]int, n)
		for v := range partial {
			partial[v] = -1
		}
		li := NewListInstance(g, nil, partial, g.MaxDegree()+1)
		if _, _, err := ListColorRandomized(local.NewNetwork(g, 24), li); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ListColorDeterministic(local.NewNetwork(g, 25), li, base, k); err != nil {
			t.Fatal(err)
		}

		// A layer: every third node inactive and colored, the rest
		// active. Inactive nodes leave after round 1, so their byes
		// must mute every port that would talk to them later.
		layer := make([]bool, n)
		for v := range layer {
			layer[v] = v%3 != 0
		}
		li = NewListInstance(g, layer, greedyPartial(g, layer), g.MaxDegree()+1)
		if _, _, err := ListColorRandomized(local.NewNetwork(g, 26), li); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ListColorDeterministic(local.NewNetwork(g, 27), li, base, k); err != nil {
			t.Fatal(err)
		}
	}
}
