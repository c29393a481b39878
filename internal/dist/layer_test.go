package dist

import (
	"runtime"
	"slices"
	"testing"

	"deltacolor/graph"
	"deltacolor/graph/gen"
	"deltacolor/local"
)

// torusBlock returns the mask of the side×side block, with top-left node
// (r0, c0), of a torus with cols columns.
func torusBlock(g *graph.G, cols, r0, c0, side int) []bool {
	active := make([]bool, g.N())
	for r := r0; r < r0+side; r++ {
		for c := c0; c < c0+side; c++ {
			active[r*cols+c] = true
		}
	}
	return active
}

// TestListColoringLayerAllocations: a layer's list coloring pays for the
// layer and its boundary, not for n. On the 256×256 torus (65,536 nodes)
// one run of either protocol on a 16-node layer, on a network that has
// run before, allocates under 64 KB (8 KB and 5 KB when written). When
// every node took part in every layer, such a run allocated 7.9 MB
// (deterministic) and 8.9 MB (randomized): program states and batches for
// all 65,536 nodes. When the colors came back n-sized, it allocated
// 0.5 MB.
func TestListColoringLayerAllocations(t *testing.T) {
	g := gen.Torus(256, 256)
	active := torusBlock(g, 256, 100, 100, 4)
	li := NewListInstance(g, active, greedyPartial(g, active), g.MaxDegree()+1)
	net := local.NewNetwork(g, 3)
	base, k, _ := Linial(net)
	runs := []struct {
		name string
		run  func() ([]int, int, error)
	}{
		{"randomized", func() ([]int, int, error) { return ListColorRandomized(net, li) }},
		{"deterministic", func() ([]int, int, error) { return ListColorDeterministic(net, li, base, k) }},
	}
	for _, r := range runs {
		if _, _, err := r.run(); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := r.run()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if b := after.TotalAlloc - before.TotalAlloc; b >= 64<<10 {
			t.Errorf("%s: one 16-node layer on 65,536 nodes allocated %d bytes, want under 64 KB", r.name, b)
		}
	}
}

// TestListColoringIgnoresCrashOutsideLayer pins that a crash window on a
// node outside a layer and its boundary does not touch the layer's run.
// The node never ends its window ({Node: far, From: 1}), and the plan's
// RoundLimit is 5,000. Only the layer and its boundary run, so both
// protocols return the fault-free colors in the fault-free rounds, and the
// run is not cut. The frozen oracles, in which every node runs, wait for
// the crashed node until the RoundLimit.
func TestListColoringIgnoresCrashOutsideLayer(t *testing.T) {
	g := gen.Torus(16, 16)
	active := torusBlock(g, 16, 2, 2, 2)
	partial := greedyPartial(g, active)
	delta := g.MaxDegree() + 1
	far := 10*16 + 10
	plan := &local.FaultPlan{Crashes: []local.CrashWindow{{Node: far, From: 1}}, RoundLimit: 5000}
	li := NewListInstance(g, active, partial, delta)
	oli := oracleNewListInstance(g, active, partial, delta)
	base, k, _ := Linial(local.NewNetwork(g, 14))
	if active[far] || slices.ContainsFunc(g.Neighbors(far), func(u int) bool { return active[u] }) {
		t.Fatal("the crashed node is in the layer or on its boundary")
	}

	protocols := []struct {
		name   string
		run    func(*local.Network) ([]int, int, error)
		oracle func(*local.Network) ([]int, int, error)
	}{
		{"randomized",
			func(net *local.Network) ([]int, int, error) { return ListColorRandomized(net, li) },
			func(net *local.Network) ([]int, int, error) { return oracleListColorRand(net, oli) }},
		{"deterministic",
			func(net *local.Network) ([]int, int, error) { return ListColorDeterministic(net, li, base, k) },
			func(net *local.Network) ([]int, int, error) { return oracleListColorDet(net, oli, base, k) }},
	}
	for _, p := range protocols {
		t.Run(p.name, func(t *testing.T) {
			want := runList(g, nil, p.run)
			if want.err != "" || want.rounds == 0 {
				t.Fatalf("fault-free run: %d rounds, error %q", want.rounds, want.err)
			}
			net := local.NewNetwork(g, 15)
			if err := net.SetFaultPlan(plan); err != nil {
				t.Fatal(err)
			}
			colors, rounds, err := p.run(net)
			got := listRun{colors: colors, rounds: rounds}
			if err != nil {
				got.err = err.Error()
			}
			if d := got.diff(want); d != "" {
				t.Fatalf("under the crash: %s", d)
			}
			if st := net.FaultStats(); st.RoundLimited != 0 || st.OfflineSteps != 0 {
				t.Fatalf("under the crash: fault stats %+v, want no cut and no frozen step", st)
			}

			onet := local.NewNetwork(g, 15)
			if err := onet.SetFaultPlan(plan); err != nil {
				t.Fatal(err)
			}
			if _, orounds, _ := p.oracle(onet); orounds != plan.RoundLimit || onet.FaultStats().RoundLimited != 1 {
				t.Fatalf("oracle under the crash: %d rounds, RoundLimited %d; want the RoundLimit %d",
					orounds, onet.FaultStats().RoundLimited, plan.RoundLimit)
			}
		})
	}
}
