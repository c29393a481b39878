package exp

import (
	"fmt"
	"math/rand"

	"deltacolor/graph"
	"deltacolor/graph/gen"
	"deltacolor/internal/baseline"
	"deltacolor/internal/core"
	"deltacolor/verify"
)

// mustColoring panics on an invalid result — the harness must never report
// rounds for an incorrect coloring.
func mustColoring(g *graph.G, colors []int, delta int, what string) {
	if err := verify.DeltaColoring(g, colors, delta); err != nil {
		panic(fmt.Sprintf("%s produced an invalid coloring: %v", what, err))
	}
}

// E1SmallDelta reproduces Theorem 1 / Corollary 2: the randomized small-Δ
// algorithm colors constant-degree graphs in O((log log n)²) rounds. We
// sweep n for Δ in {3,4,5} on random Δ-regular graphs and report rounds
// alongside rounds/(log log n)², which the theorem predicts stays bounded,
// and the log-log slope (sublogarithmic growth shows as slope << 1).
func E1SmallDelta(cfg Config) *Table {
	cfg.install()
	t := &Table{
		ID:     "E1",
		Title:  "Theorem 1 / Corollary 2 — randomized small-Δ coloring, rounds vs n",
		Header: []string{"Δ", "n", "rounds", "repairs", "rounds/(loglog n)²"},
	}
	exps := []int{8, 9, 10, 11, 12, 13}
	if cfg.Quick {
		exps = []int{8, 9, 10}
	}
	for _, delta := range []int{3, 4, 5} {
		var xs, ys []float64
		for _, e := range exps {
			n := 1 << e
			rng := rand.New(rand.NewSource(cfg.Seed + int64(e*100+delta)))
			g := gen.MustRandomRegular(rng, n, delta)
			res, err := core.Randomized(g, core.RandOptions{Seed: cfg.Seed + int64(e)})
			if err != nil {
				panic(fmt.Sprintf("E1 Δ=%d n=%d: %v", delta, n, err))
			}
			mustColoring(g, res.Colors, res.Delta, "E1")
			ll := loglog(n)
			t.AddRow(itoa(delta), pow2(e), itoa(res.Rounds), itoa(res.Repairs), f2(float64(res.Rounds)/(ll*ll)))
			xs = append(xs, log2f(n))
			ys = append(ys, float64(res.Rounds))
		}
		slope := fitSlope(xs, ys)
		t.AddNote("Δ=%d: d(rounds)/d(log2 n) ≈ %.2f — far below the baseline's poly(log n) growth; the paper predicts O((log log n)²), i.e. a vanishing slope.", delta, slope)
	}
	return t
}

// E2LargeDelta reproduces Theorem 3: for Δ >= 4 the randomized algorithm
// runs in O(log Δ) + 2^O(√log log n) rounds. We fix n and sweep Δ, reporting
// rounds and rounds/log Δ, which the theorem predicts approaches a constant
// plus the (n-dependent) shattering term.
func E2LargeDelta(cfg Config) *Table {
	cfg.install()
	t := &Table{
		ID:     "E2",
		Title:  "Theorem 3 — randomized large-Δ coloring, rounds vs Δ at fixed n",
		Header: []string{"Δ", "n", "rounds", "repairs", "rounds/log₂Δ"},
	}
	n := 1 << 12
	deltas := []int{4, 6, 8, 12, 16, 24, 32}
	if cfg.Quick {
		n = 1 << 9
		deltas = []int{4, 8, 16}
	}
	var xs, ys []float64
	for _, delta := range deltas {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(delta)))
		g := gen.MustRandomRegular(rng, n, delta)
		res, err := core.Randomized(g, core.RandOptions{Seed: cfg.Seed + int64(delta)})
		if err != nil {
			panic(fmt.Sprintf("E2 Δ=%d: %v", delta, err))
		}
		mustColoring(g, res.Colors, res.Delta, "E2")
		t.AddRow(itoa(delta), pow2(12), itoa(res.Rounds), itoa(res.Repairs), f2(float64(res.Rounds)/log2f(delta)))
		xs = append(xs, log2f(delta))
		ys = append(ys, float64(res.Rounds))
	}
	t.AddNote("d(rounds)/d(log2 Δ) ≈ %.2f: at laptop scale the additive n-dependent shattering term of Theorem 3 dominates and the O(log Δ) term is invisible — rounds stay flat (or even fall: denser graphs give the marking process more slack per node). The reproducible shape is the absence of any polynomial Δ-dependence, which the deterministic algorithm (E3) does exhibit through the schedule of its substituted list-coloring subroutine: one color reduction of O(Δ²) rounds, then Δ+1 rounds per layer.", fitSlope(xs, ys))
	return t
}

// E3Deterministic reproduces Theorem 4: deterministic Δ-coloring in
// Õ(√Δ·log²n) paper-rounds (O(Δ·log²n + Δ²) with this repository's
// substituted list-coloring subroutine: Δ+1 rounds per layer after one
// color reduction of O(Δ²) rounds, see README "Departures from the
// paper"). The log²n growth in n is the reproducible shape: rounds/log²n
// should flatten per Δ.
func E3Deterministic(cfg Config) *Table {
	cfg.install()
	t := &Table{
		ID:     "E3",
		Title:  "Theorem 4 — deterministic coloring, rounds vs n (fit against log² n)",
		Header: []string{"Δ", "n", "rounds", "rounds/log₂²n"},
	}
	exps := []int{8, 9, 10, 11, 12}
	deltas := []int{4, 8, 16}
	if cfg.Quick {
		exps = []int{8, 9}
		deltas = []int{4, 8}
	}
	for _, delta := range deltas {
		var xs, ys []float64
		for _, e := range exps {
			n := 1 << e
			rng := rand.New(rand.NewSource(cfg.Seed + int64(e*1000+delta)))
			g := gen.MustRandomRegular(rng, n, delta)
			res, err := core.Deterministic(g, cfg.Seed+int64(e))
			if err != nil {
				panic(fmt.Sprintf("E3 Δ=%d n=%d: %v", delta, n, err))
			}
			mustColoring(g, res.Colors, res.Delta, "E3")
			l := log2f(n)
			t.AddRow(itoa(delta), pow2(e), itoa(res.Rounds), f2(float64(res.Rounds)/(l*l)))
			xs = append(xs, log2f(n))
			ys = append(ys, float64(res.Rounds))
		}
		t.AddNote("Δ=%d: d(rounds)/d(log2 n) ≈ %.1f — polylogarithmic in n as Theorem 4 predicts. Every layer costs Δ+1 = %d rounds after one color reduction of k-(Δ+1) rounds (k = Linial's palette); the AGLP ruling set's charge grows fastest in n.", delta, fitSlope(xs, ys), delta+1)
	}
	return t
}

// E4Baseline reproduces the headline comparison: the paper's algorithms
// against the Panconesi–Srinivasan-style baseline (25-year state of the
// art, O(log³n/log Δ) rounds). The shape that must hold: the randomized
// algorithm wins on every workload, by a factor that grows with n.
func E4Baseline(cfg Config) *Table {
	cfg.install()
	t := &Table{
		ID:     "E4",
		Title:  "Headline — this paper vs Panconesi–Srinivasan baseline",
		Header: []string{"workload", "n", "Δ", "rand rounds", "det rounds", "baseline rounds", "baseline/rand"},
	}
	exps := []int{8, 10, 12, 13}
	if cfg.Quick {
		exps = []int{8, 9}
	}
	var ratios []float64
	for _, e := range exps {
		n := 1 << e
		rng := rand.New(rand.NewSource(cfg.Seed + int64(e)))
		g := gen.MustRandomRegular(rng, n, 4)

		rres, err := core.Randomized(g, core.RandOptions{Seed: cfg.Seed + int64(e)})
		if err != nil {
			panic(fmt.Sprintf("E4 rand n=%d: %v", n, err))
		}
		mustColoring(g, rres.Colors, rres.Delta, "E4/rand")

		dres, err := core.Deterministic(g, cfg.Seed+int64(e))
		if err != nil {
			panic(fmt.Sprintf("E4 det n=%d: %v", n, err))
		}
		mustColoring(g, dres.Colors, dres.Delta, "E4/det")

		bres, err := baseline.Color(g, cfg.Seed+int64(e))
		if err != nil {
			panic(fmt.Sprintf("E4 baseline n=%d: %v", n, err))
		}
		mustColoring(g, bres.Colors, bres.Delta, "E4/baseline")

		r := ratio(bres.Rounds, rres.Rounds)
		ratios = append(ratios, r)
		t.AddRow("random 4-regular", pow2(e), "4", itoa(rres.Rounds), itoa(dres.Rounds), itoa(bres.Rounds), f2(r))
	}
	t.AddNote("geometric-mean speedup of the randomized algorithm over the baseline: %.2fx; the paper predicts the gap widens with n (O((log log n)²) vs O(log³ n)).", geomean(ratios))
	return t
}

// E8NetDec compares the two deterministic variants: Theorem 4 (AGLP ruling
// set + list coloring scheduled by one (Δ+1)-coloring) against Theorem 21
// (network decomposition, same layers). Both must produce valid
// colorings; the table reports their round counts side by side.
func E8NetDec(cfg Config) *Table {
	cfg.install()
	t := &Table{
		ID:     "E8",
		Title:  "Theorem 21 — network-decomposition variant vs Theorem 4 variant",
		Header: []string{"n", "Δ", "Thm4 rounds", "Thm21 rounds", "Thm21/Thm4"},
	}
	exps := []int{8, 9, 10, 11}
	if cfg.Quick {
		exps = []int{8, 9}
	}
	for _, e := range exps {
		n := 1 << e
		rng := rand.New(rand.NewSource(cfg.Seed + int64(e*7)))
		g := gen.MustRandomRegular(rng, n, 4)
		d4, err := core.Deterministic(g, cfg.Seed+int64(e))
		if err != nil {
			panic(fmt.Sprintf("E8 thm4 n=%d: %v", n, err))
		}
		mustColoring(g, d4.Colors, d4.Delta, "E8/thm4")
		d21, err := core.DeterministicNetDec(g, cfg.Seed+int64(e))
		if err != nil {
			panic(fmt.Sprintf("E8 thm21 n=%d: %v", n, err))
		}
		mustColoring(g, d21.Colors, d21.Delta, "E8/thm21")
		t.AddRow(pow2(e), "4", itoa(d4.Rounds), itoa(d21.Rounds), f2(ratio(d21.Rounds, d4.Rounds)))
	}
	t.AddNote("both variants grow polylogarithmically; Theorem 21 trades the AGLP recursion for decomposition rounds. Both color their layers the same way (Δ+1 rounds each, after one color reduction of k-(Δ+1) rounds), so the ratio measures how they build B0. In the paper the Thm 21 bound (2^O(√log n)) is weaker than Thm 4's for small Δ; at these n the AGLP ruling set charges more rounds than the decomposition route.")
	return t
}
