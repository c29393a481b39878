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
// node outside a layer does not touch the layer's run, whether the node
// lies farther out or on the layer's boundary. The node never ends its
// window ({Node: v, From: 1}), and the plan's RoundLimit is 5,000. Only
// the layer and its boundary run, and a boundary node stages its bye and
// halts in Init, before any window opens, so both protocols return the
// fault-free colors in the fault-free rounds, and the run is not cut. The
// frozen oracles, in which every node runs, wait for the crashed node
// until the RoundLimit.
func TestListColoringIgnoresCrashOutsideLayer(t *testing.T) {
	g := gen.Torus(16, 16)
	active := torusBlock(g, 16, 2, 2, 2)
	partial := greedyPartial(g, active)
	delta := g.MaxDegree() + 1
	li := NewListInstance(g, active, partial, delta)
	oli := oracleNewListInstance(g, active, partial, delta)
	base, k, _ := Linial(local.NewNetwork(g, 14))
	far, boundary := 10*16+10, 1*16+2
	onBoundary := func(v int) bool { return slices.ContainsFunc(g.Neighbors(v), func(u int) bool { return active[u] }) }
	if active[far] || onBoundary(far) || active[boundary] || !onBoundary(boundary) {
		t.Fatal("the crashed nodes are not one far from the layer and one on its boundary")
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
	crashes := []struct {
		name string
		node int
	}{{"far", far}, {"boundary", boundary}}
	for _, p := range protocols {
		t.Run(p.name, func(t *testing.T) {
			want := runList(g, nil, p.run)
			if want.err != "" || want.rounds == 0 {
				t.Fatalf("fault-free run: %d rounds, error %q", want.rounds, want.err)
			}
			for _, crashed := range crashes {
				t.Run(crashed.name, func(t *testing.T) {
					plan := &local.FaultPlan{Crashes: []local.CrashWindow{{Node: crashed.node, From: 1}}, RoundLimit: 5000}
					net := local.NewNetwork(g, 15)
					tr := local.NewTracer(local.TraceCounters, 0)
					net.SetTracer(tr)
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
					if cut, frozen := net.LastRunStats().RoundLimited, tr.Counters().OfflineSteps; cut || frozen != 0 {
						t.Fatalf("under the crash: RoundLimited %v, %d frozen steps; want no cut and no frozen step", cut, frozen)
					}

					onet := local.NewNetwork(g, 15)
					if err := onet.SetFaultPlan(plan); err != nil {
						t.Fatal(err)
					}
					if _, orounds, _ := p.oracle(onet); orounds != plan.RoundLimit || !onet.LastRunStats().RoundLimited {
						t.Fatalf("oracle under the crash: %d rounds, RoundLimited %v; want the RoundLimit %d",
							orounds, onet.LastRunStats().RoundLimited, plan.RoundLimit)
					}
				})
			}
		})
	}
}
