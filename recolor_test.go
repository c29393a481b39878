package deltacolor_test

// Tests for the self-healing recovery surface: ConflictSet detection,
// Recolor repair after corruption and churn, the typed ErrUnrecoverable
// contract, and ColorUnderFaults — the "run under FaultPlan, detect,
// repair, verify" mode of every pipeline.

import (
	"errors"
	"math/rand"
	"testing"

	"deltacolor"
	"deltacolor/graph"
	"deltacolor/graph/gen"
	"deltacolor/local"
	"deltacolor/verify"
)

// coloredRegular returns a verified Δ-colored random regular graph.
func coloredRegular(t *testing.T, n, d int, seed int64) (*graph.G, []int) {
	t.Helper()
	g := gen.MustRandomRegular(rand.New(rand.NewSource(seed)), n, d)
	res, err := deltacolor.Color(g, deltacolor.Options{Algorithm: deltacolor.AlgRandomized, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return g, res.Colors
}

func TestConflictSetDetectsCorruption(t *testing.T) {
	g, colors := coloredRegular(t, 128, 4, 11)

	if cs := deltacolor.ConflictSet(g, colors, 4); len(cs) != 0 {
		t.Fatalf("valid coloring reported conflicts %v", cs)
	}

	// Copy a neighbor's color onto node 0: every neighbor of 0 holding
	// that color now sits on a monochromatic edge, and each such edge
	// marks its higher-ID endpoint (the neighbor, since 0 is lowest).
	nb := g.Neighbors(0)[0]
	bad := append([]int(nil), colors...)
	bad[0] = bad[nb]
	want := map[int]bool{}
	for _, u := range g.Neighbors(0) {
		if bad[u] == bad[0] {
			want[u] = true
		}
	}
	cs := deltacolor.ConflictSet(g, bad, 4)
	if len(cs) != len(want) {
		t.Fatalf("conflict set = %v, want keys of %v", cs, want)
	}
	for _, v := range cs {
		if !want[v] {
			t.Fatalf("unexpected conflict node %d in %v", v, cs)
		}
	}

	// Out-of-range and holes are always conflicts.
	bad[5] = -1
	bad[7] = 4
	cs = deltacolor.ConflictSet(g, bad, 4)
	want[5], want[7] = true, true
	if len(cs) != len(want) {
		t.Fatalf("conflict set = %v, want keys of %v", cs, want)
	}
	for _, v := range cs {
		if !want[v] {
			t.Fatalf("unexpected conflict node %d in %v", v, cs)
		}
	}

	// Uncoloring the conflict set must leave a proper partial coloring.
	for _, v := range cs {
		bad[v] = -1
	}
	if err := verify.PartialColoring(g, bad, 4); err != nil {
		t.Fatalf("uncolored conflict set not a proper partial coloring: %v", err)
	}
}

func TestRecolorFixesInjectedCorruption(t *testing.T) {
	g, colors := coloredRegular(t, 256, 4, 21)
	rng := rand.New(rand.NewSource(99))
	for k := 0; k < 12; k++ {
		v := rng.Intn(g.N())
		colors[v] = rng.Intn(4) // may or may not conflict; Recolor decides
	}
	colors[3] = -1 // a hole
	colors[9] = 17 // out of range

	stats, err := deltacolor.Recolor(g, colors, 4, 77)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.DeltaColoring(g, colors, 4); err != nil {
		t.Fatalf("post-Recolor coloring invalid: %v", err)
	}
	if stats.Conflicts == 0 || stats.Changed == 0 {
		t.Fatalf("stats claim no work: %+v", stats)
	}
	t.Logf("recolor stats: %+v", stats)
}

func TestRecolorNoopOnValidColoring(t *testing.T) {
	g, colors := coloredRegular(t, 128, 4, 31)
	before := append([]int(nil), colors...)
	stats, err := deltacolor.Recolor(g, colors, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Conflicts != 0 || stats.Changed != 0 {
		t.Fatalf("noop recolor reported work: %+v", stats)
	}
	for v := range colors {
		if colors[v] != before[v] {
			t.Fatalf("noop recolor changed node %d", v)
		}
	}
}

func TestRecolorAfterChurn(t *testing.T) {
	g, colors := coloredRegular(t, 256, 4, 41)

	// Insert edges until one is monochromatic, then add a fresh node wired
	// to three others — the AddNode contract: caller appends -1 entries.
	rng := rand.New(rand.NewSource(5))
	mono := false
	for k := 0; k < 64 && !mono; k++ {
		u, v := rng.Intn(g.N()), rng.Intn(g.N())
		if u == v || g.HasEdge(u, v) {
			continue
		}
		g.MustEdge(u, v)
		mono = mono || colors[u] == colors[v]
	}
	nv := g.AddNode()
	for _, u := range []int{0, 1, 2} {
		g.MustEdge(nv, u)
	}
	colors = append(colors, -1)

	delta := g.MaxDegree()
	stats, err := deltacolor.Recolor(g, colors, delta, 13)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.DeltaColoring(g, colors, delta); err != nil {
		t.Fatalf("post-churn recolor invalid: %v", err)
	}
	if stats.Conflicts == 0 {
		t.Fatal("churn produced no conflicts to repair — test is vacuous")
	}
	t.Logf("churn recolor stats: %+v (Δ=%d)", stats, delta)
}

func TestRecolorUnrecoverableOnClique(t *testing.T) {
	// K4 is not Δ-colorable: uncoloring any conflict leaves a hole no
	// Brooks repair can fill with Δ=3 colors. Must surface as the typed
	// sentinel with a residual set — never a panic or a bad coloring.
	g := gen.Complete(4)
	colors := []int{0, 1, 2, 0} // nodes 0 and 3 collide
	_, err := deltacolor.Recolor(g, colors, 3, 1)
	if !errors.Is(err, deltacolor.ErrUnrecoverable) {
		t.Fatalf("want ErrUnrecoverable, got %v", err)
	}
	var ue *deltacolor.UnrecoverableError
	if !errors.As(err, &ue) {
		t.Fatalf("error %v does not unwrap to *UnrecoverableError", err)
	}
	if len(ue.Residual) == 0 {
		t.Fatal("UnrecoverableError carries empty residual conflict set")
	}
	if err := verify.PartialColoring(g, colors, 3); err != nil {
		t.Fatalf("failed recovery left an improper partial coloring: %v", err)
	}
}

func TestRecolorRejectsLengthMismatch(t *testing.T) {
	g := gen.Cycle(4)
	if _, err := deltacolor.Recolor(g, []int{0, 1}, 2, 1); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestColorUnderFaultsNilPlanMatchesColor(t *testing.T) {
	g := gen.MustRandomRegular(rand.New(rand.NewSource(3)), 128, 4)
	opts := deltacolor.Options{Algorithm: deltacolor.AlgRandomized, Seed: 3}
	want, err := deltacolor.Color(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := deltacolor.ColorUnderFaults(g, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Conflicts != 0 {
		t.Fatalf("fault-free run needed repair: %+v", stats)
	}
	for v := range want.Colors {
		if got.Colors[v] != want.Colors[v] {
			t.Fatalf("node %d: %d != %d", v, got.Colors[v], want.Colors[v])
		}
	}
	if got.Rounds != want.Rounds {
		t.Fatalf("rounds %d != %d", got.Rounds, want.Rounds)
	}
}

func TestColorUnderFaultsStructuralErrPassesThrough(t *testing.T) {
	plan := &local.FaultPlan{Seed: 1, DropProb: 0.1, RoundLimit: 100}
	_, _, err := deltacolor.ColorUnderFaults(gen.Complete(5), deltacolor.Options{}, plan)
	if !errors.Is(err, deltacolor.ErrComplete) {
		t.Fatalf("want ErrComplete, got %v", err)
	}
	if errors.Is(err, deltacolor.ErrUnrecoverable) {
		t.Fatal("structural error wrapped as unrecoverable")
	}
	if p := local.DefaultFaultPlan(); p != nil {
		t.Fatalf("default plan leaked after structural error: %+v", p)
	}
}

// TestEveryAlgorithmTypedPreconditionErrors: every algorithm rejects a
// clique or a Δ = 2 graph with the typed precondition error, through
// Color and through ColorUnderFaults, which passes it through instead of
// reporting an unrecoverable fault.
func TestEveryAlgorithmTypedPreconditionErrors(t *testing.T) {
	inputs := []struct {
		name string
		g    *graph.G
		want error
	}{
		{"K4", gen.Complete(4), deltacolor.ErrComplete},
		{"K5", gen.Complete(5), deltacolor.ErrComplete},
		{"C7", gen.Cycle(7), deltacolor.ErrDegreeTooSmall},
		{"P8", gen.Path(8), deltacolor.ErrDegreeTooSmall},
	}
	algs := []deltacolor.Algorithm{deltacolor.AlgAuto, deltacolor.AlgRandomized, deltacolor.AlgDeterministic, deltacolor.AlgBaseline, deltacolor.AlgNetDec}
	plan := &local.FaultPlan{Seed: 1, DropProb: 0.1, RoundLimit: 100}
	for _, in := range inputs {
		for _, alg := range algs {
			opts := deltacolor.Options{Algorithm: alg, Seed: 1}
			if _, err := deltacolor.Color(in.g, opts); !errors.Is(err, in.want) {
				t.Errorf("%s %v: Color: got %v, want %v", in.name, alg, err, in.want)
			}
			_, _, err := deltacolor.ColorUnderFaults(in.g, opts, plan)
			if !errors.Is(err, in.want) || errors.Is(err, deltacolor.ErrUnrecoverable) {
				t.Errorf("%s %v: ColorUnderFaults: got %v, want %v unwrapped", in.name, alg, err, in.want)
			}
		}
	}
}

func TestColorUnderFaultsRepairsAndVerifies(t *testing.T) {
	// A bounded early burst of drops and delays: the pipeline limps but
	// terminates, then Recolor heals whatever the faults mangled. The
	// contract under test is all-or-typed-error, plus determinism: two
	// identical calls must agree byte for byte.
	g := gen.MustRandomRegular(rand.New(rand.NewSource(8)), 192, 4)
	opts := deltacolor.Options{Algorithm: deltacolor.AlgRandomized, Seed: 8}
	plan := &local.FaultPlan{
		Seed:     99,
		DropProb: 0.02, DelayProb: 0.05, MaxDelay: 2,
		FromRound: 1, ToRound: 40,
		RoundLimit: 20_000,
	}
	res1, st1, err1 := deltacolor.ColorUnderFaults(g, opts, plan)
	res2, st2, err2 := deltacolor.ColorUnderFaults(g, opts, plan)
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("nondeterministic outcome: %v vs %v", err1, err2)
	}
	if err1 != nil {
		if !errors.Is(err1, deltacolor.ErrUnrecoverable) {
			t.Fatalf("fault failure not typed: %v", err1)
		}
		t.Skipf("plan unrecoverable for this pipeline (typed correctly): %v", err1)
	}
	if err := verify.DeltaColoring(g, res1.Colors, res1.Delta); err != nil {
		t.Fatalf("post-repair coloring invalid: %v", err)
	}
	if hashColors(res1.Colors) != hashColors(res2.Colors) {
		t.Fatal("colors differ across identical fault runs")
	}
	if *st1 != *st2 {
		t.Fatalf("repair stats differ: %+v vs %+v", st1, st2)
	}
	if p := local.DefaultFaultPlan(); p != nil {
		t.Fatalf("default plan leaked: %+v", p)
	}
	t.Logf("repair stats: %+v", st1)
}

// TestColorUnderFaultsProperty drives many random fault schedules through
// the randomized pipeline: every outcome must be either a verified
// coloring or an error wrapping ErrUnrecoverable — never a panic, never a
// silently improper coloring.
func TestColorUnderFaultsProperty(t *testing.T) {
	trials := 12
	if testing.Short() {
		trials = 4
	}
	rng := rand.New(rand.NewSource(2026))
	healed, failed := 0, 0
	for trial := 0; trial < trials; trial++ {
		g := gen.MustRandomRegular(rng, 96+32*(trial%3), 4)
		plan := &local.FaultPlan{
			Seed:       rng.Int63(),
			DropProb:   0.05 * rng.Float64(),
			DupProb:    0.1 * rng.Float64(),
			DelayProb:  0.1 * rng.Float64(),
			MaxDelay:   1 + rng.Intn(3),
			FromRound:  1,
			ToRound:    10 + rng.Intn(60),
			RoundLimit: 20_000,
		}
		if rng.Intn(2) == 0 {
			v := rng.Intn(g.N())
			plan.Crashes = []local.CrashWindow{{Node: v, From: 2, To: 3 + rng.Intn(20)}}
		}
		opts := deltacolor.Options{Algorithm: deltacolor.AlgRandomized, Seed: int64(trial)}
		res, _, err := deltacolor.ColorUnderFaults(g, opts, plan)
		if err != nil {
			if !errors.Is(err, deltacolor.ErrUnrecoverable) {
				t.Fatalf("trial %d: untyped fault error: %v", trial, err)
			}
			failed++
			continue
		}
		if verr := verify.DeltaColoring(g, res.Colors, res.Delta); verr != nil {
			t.Fatalf("trial %d: nil error but invalid coloring: %v", trial, verr)
		}
		healed++
	}
	if p := local.DefaultFaultPlan(); p != nil {
		t.Fatalf("default plan leaked: %+v", p)
	}
	t.Logf("healed %d / unrecoverable %d of %d fault schedules", healed, failed, trials)
	if healed == 0 {
		t.Fatal("no schedule healed — fault magnitudes too aggressive for a meaningful property test")
	}
}
