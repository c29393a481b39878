package exp

import (
	"fmt"
	"math"
	"math/rand"

	"deltacolor/graph"
	"deltacolor/graph/gen"
	"deltacolor/internal/core"
)

// colorForTest produces a valid Δ-coloring to perturb in the Brooks
// experiments.
func colorForTest(g *graph.G, seed int64) ([]int, error) {
	res, err := core.Randomized(g, core.RandOptions{Seed: seed})
	if err != nil {
		return nil, err
	}
	return res.Colors, nil
}

// E6Shattering reproduces Lemmas 22–24: after the marking process, the
// per-node survival probability is poly(Δ)-small and the surviving
// components have size O(poly(Δ)·log n). We sweep n at fixed Δ and report
// the measured survival rate and the largest surviving component against
// the c·log n shape.
func E6Shattering(cfg Config) *Table {
	cfg.install()
	t := &Table{
		ID:     "E6",
		Title:  "Lemmas 22–24 — shattering: survival rate and component size vs log n",
		Header: []string{"Δ (backoff)", "n", "p", "T-nodes", "survivors", "survival rate", "max comp", "comp/log₂n"},
	}
	exps := []int{10, 11, 12, 13, 14}
	if cfg.Quick {
		exps = []int{9, 10}
	}
	// Two regimes. "paper": b = 6 with the auto happiness radius — at
	// laptop n the distance-6 backoff ball holds ~10³ nodes, so T-nodes
	// are scarce and the radius covers the graph from a single T-node
	// (the asymptotic constants target enormous n; the outcome is binary).
	// "laptop": b = 3, r = 3 — dense marking with a short radius, which
	// makes the shattering *visible*: a few percent of nodes survive, in
	// components of size O(log n).
	type regime struct {
		name    string
		backoff int
		r       int
	}
	regimes := []regime{{"paper b=6", 6, 0}, {"laptop b=3 r=3", 3, 3}}
	for _, rg := range regimes {
		for _, delta := range []int{4, 6} {
			for _, e := range exps {
				n := 1 << e
				rng := rand.New(rand.NewSource(cfg.Seed + int64(e*31+delta+rg.backoff)))
				g := gen.MustRandomRegular(rng, n, delta)
				st := core.ShatterOnce(g, core.RandOptions{Seed: cfg.Seed + int64(e), Backoff: rg.backoff, R: rg.r})
				t.AddRow(
					fmt.Sprintf("%d (%s)", delta, rg.name), pow2(e), f4(st.P), itoa(st.TNodes),
					itoa(st.Survivors), f4(st.SurvivalRate()),
					itoa(st.MaxComponent), f2(float64(st.MaxComponent)/log2f(n)),
				)
			}
		}
	}
	t.AddNote("in the laptop regime the survival rate FALLS as n grows while the max surviving component stays O(log n) (bounded comp/log₂n) — the shattering property (Lemma 24 P2) that lets phase (6) color leftovers with brute-force-sized machinery. In the paper regime the outcome is binary at these sizes: one surviving T-node's happiness ball already covers the graph, or none survives the backoff and everything remains — the asymptotic regime the constants were written for.")
	return t
}

// E10Ablations sweeps the design parameters Section 4 fixes: the backoff
// distance b (6 for Δ >= 4, 12 for Δ = 3), the selection probability p, and
// the DCC radius r. Each variant changes one of them from the defaults'
// values and keeps the other two; T-nodes, survivors and rounds are means
// over five seeds on one graph.
func E10Ablations(cfg Config) *Table {
	cfg.install()
	t := &Table{
		ID:     "E10",
		Title:  "Ablations — marking backoff b, selection probability p, radius r",
		Header: []string{"variant", "Δ", "n", "b", "p", "r", "T-nodes", "survivors", "survival rate", "max comp", "total rounds"},
	}
	n := 1 << 12
	if cfg.Quick {
		n = 1 << 9
	}
	delta := 4
	rng := rand.New(rand.NewSource(cfg.Seed + 1001))
	g := gen.MustRandomRegular(rng, n, delta)

	d := core.RandOptions{}.AutoParams(n, delta)
	variants := []struct {
		name string
		o    core.RandOptions
	}{
		{"paper defaults (b=6)", d},
		{"b=2 (tight backoff)", core.RandOptions{Backoff: 2, P: d.P, R: d.R}},
		{"b=12 (wide backoff)", core.RandOptions{Backoff: 12, P: d.P, R: d.R}},
		{"p×4 (dense marking)", core.RandOptions{Backoff: d.Backoff, P: math.Min(0.2, d.P*4), R: d.R}},
		{"p÷4 (sparse marking)", core.RandOptions{Backoff: d.Backoff, P: d.P / 4, R: d.R}},
		{"r=2 (short happiness radius)", core.RandOptions{Backoff: d.Backoff, P: d.P, R: 2}},
		{"r=8 (long happiness radius)", core.RandOptions{Backoff: d.Backoff, P: d.P, R: 8}},
	}
	const seeds = 5
	for _, va := range variants {
		var tnodes, survivors, rounds float64
		maxComp := 0
		for i := range seeds {
			o := va.o
			o.Seed = cfg.Seed + int64(i)
			st := core.ShatterOnce(g, o)
			res, err := core.Randomized(g, o)
			if err != nil {
				panic(fmt.Sprintf("E10 %s seed %d: %v", va.name, o.Seed, err))
			}
			tnodes += float64(st.TNodes) / seeds
			survivors += float64(st.Survivors) / seeds
			rounds += float64(res.Rounds) / seeds
			maxComp = max(maxComp, st.MaxComponent)
		}
		t.AddRow(
			va.name, itoa(delta), itoa(n), itoa(va.o.Backoff), f4(va.o.P), itoa(va.o.R),
			f2(tnodes), f2(survivors), f4(survivors/float64(n)), itoa(maxComp), f2(rounds),
		)
	}
	t.AddNote("each variant changes one parameter and holds the others at the defaults' values, so b=2 and b=12 keep the p of b=6; T-nodes, survivors and rounds are means over 5 seeds, max comp the largest over them.")
	if cfg.Quick {
		t.AddNote("at n = 512 that p selects about half a node per run, so T-nodes are rare: most rows keep all 512 nodes in every seed and differ in rounds alone. r sets the rounds: r=2 cuts them to about a third, r=8 adds about a quarter.")
	} else {
		t.AddNote("at n = 4096 b=2 keeps the most T-nodes and leaves no survivors; b=12 and p×4 keep fewer T-nodes than the defaults and leave most nodes surviving; p÷4 keeps no more T-nodes than the defaults. r=2 leaves almost every node a survivor at about a third of the rounds; r=8 leaves the defaults' survivors at more rounds.")
	}
	return t
}
