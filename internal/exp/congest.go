package exp

import (
	"math/rand"

	"deltacolor/graph/gen"
	"deltacolor/internal/dist"
	"deltacolor/local"
)

// E11Congest profiles the message sizes of the message-passing building
// blocks. The LOCAL model allows unbounded messages; this experiment
// measures how far each primitive actually is from the CONGEST model's
// O(log n)-bit budget: the color/trial protocols ship a handful of bytes
// per edge per round (CONGEST-portable as-is), while ball gathering is
// exactly the primitive whose messages grow with the neighborhood — the
// formal reason the paper's algorithms are LOCAL-model results.
func E11Congest(cfg Config) *Table {
	cfg.install()
	t := &Table{
		ID:     "E11",
		Title:  "CONGEST profile — message sizes of the distributed primitives",
		Header: []string{"primitive", "n", "Δ", "rounds", "messages", "max msg bytes", "avg msg bytes"},
	}
	n := 1 << 10
	if cfg.Quick {
		n = 1 << 8
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 41))
	g := gen.MustRandomRegular(rng, n, 4)

	// Each primitive is one engine run on its own network; its tracer
	// counts the messages and their words, 4 bytes each.
	run := func(name string, f func(net *local.Network)) {
		net := local.NewNetwork(g, cfg.Seed)
		tr := local.NewTracer(local.TraceCounters, 0)
		net.SetTracer(tr)
		f(net)
		c := tr.Counters()
		avg := 0.0
		if m := c.Messages(); m > 0 {
			avg = float64(4*c.Words) / float64(m)
		}
		t.AddRow(name, itoa(n), "4", itoa(net.Rounds()), itoa(int(c.Messages())), itoa(4*int(c.MaxWords)), f2(avg))
	}

	// The color reduction starts from a Linial coloring computed off the
	// profile, and the deterministic list coloring is scheduled by the
	// reduced (Δ+1)-coloring, as in the pipelines.
	base, k, _ := dist.Linial(local.NewNetwork(g, cfg.Seed))
	run("Linial O(Δ²) coloring", func(net *local.Network) {
		dist.Linial(net)
	})
	var reduced []int
	run("color reduction to Δ+1", func(net *local.Network) {
		var err error
		if reduced, _, err = dist.ReduceColors(net, base, k, 5); err != nil {
			panic(err)
		}
	})
	run("Luby MIS", func(net *local.Network) {
		dist.LubyMIS(net, nil)
	})
	run("randomized list coloring", func(net *local.Network) {
		active := make([]bool, g.N())
		for v := range active {
			active[v] = true
		}
		partial := make([]int, g.N())
		for v := range partial {
			partial[v] = -1
		}
		li := dist.NewListInstance(g, active, partial, 5)
		if _, _, err := dist.ListColorRandomized(net, li); err != nil {
			panic(err)
		}
	})
	run("deterministic list coloring, every third node", func(net *local.Network) {
		// The layer of a Theorem 4 run: every third node erased from the
		// reduced coloring and recolored on its Δ+1 classes.
		active := make([]bool, g.N())
		partial := append([]int(nil), reduced...)
		for v := 0; v < g.N(); v += 3 {
			active[v] = true
			partial[v] = -1
		}
		li := dist.NewListInstance(g, active, partial, 5)
		if _, _, err := dist.ListColorDeterministic(net, li, reduced, 5); err != nil {
			panic(err)
		}
	})
	run("gather radius-4 balls", func(net *local.Network) {
		local.GatherStepped(net, 4)
	})

	t.AddNote("the symmetry-breaking protocols (Linial, color reduction, MIS, list coloring) move a few bytes per edge per round — CONGEST-portable as-is — while ball gathering ships whole neighborhoods (max message orders of magnitude larger): exactly the phases that make the paper's algorithms LOCAL-model results. The color reduction is quiet: a node speaks at the start and once when it recolors, so its 116 rounds carry at most two messages per directed edge. The deterministic list coloring talks only inside its layer, for Δ+1 rounds. The gather packs each round's frontier into one flat integer record per edge.")
	return t
}
