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
// the DCC radius r. The table shows why the paper's choices balance T-node
// density (coverage) against blocked paths.
func E10Ablations(cfg Config) *Table {
	cfg.install()
	t := &Table{
		ID:     "E10",
		Title:  "Ablations — marking backoff b, selection probability p, radius r",
		Header: []string{"variant", "Δ", "n", "T-nodes", "survivors", "survival rate", "max comp", "total rounds"},
	}
	n := 1 << 12
	if cfg.Quick {
		n = 1 << 9
	}
	delta := 4
	rng := rand.New(rand.NewSource(cfg.Seed + 1001))
	g := gen.MustRandomRegular(rng, n, delta)

	base := core.RandOptions{Seed: cfg.Seed}.AutoParams(n, delta)

	variants := []struct {
		name string
		o    core.RandOptions
	}{
		{"paper defaults (b=6)", base},
		{"b=2 (tight backoff)", withBackoff(base, 2)},
		{"b=12 (wide backoff)", withBackoff(base, 12)},
		{"p×4 (dense marking)", withP(base, math.Min(0.2, base.P*4))},
		{"p÷4 (sparse marking)", withP(base, base.P/4)},
		{"r=2 (short happiness radius)", withR(base, 2)},
		{"r=8 (long happiness radius)", withR(base, 8)},
	}
	for _, va := range variants {
		st := core.ShatterOnce(g, va.o)
		res, err := core.Randomized(g, va.o)
		if err != nil {
			panic(fmt.Sprintf("E10 %s: %v", va.name, err))
		}
		t.AddRow(
			va.name, itoa(delta), itoa(n),
			itoa(st.TNodes), itoa(st.Survivors), f4(st.SurvivalRate()),
			itoa(st.MaxComponent), itoa(res.Rounds),
		)
	}
	t.AddNote("sparser marking (p÷4) or a short happiness radius leaves more survivors for the small-component machinery; a tight backoff (b=2) raises T-node density but risks blocked paths — the paper's defaults sit at the low-survivor, low-round corner.")
	return t
}

func withBackoff(o core.RandOptions, b int) core.RandOptions {
	o.Backoff = b
	return o
}

func withP(o core.RandOptions, p float64) core.RandOptions {
	o.P = p
	return o
}

func withR(o core.RandOptions, r int) core.RandOptions {
	o.R = r
	return o
}
