package core

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"deltacolor/graph"
	"deltacolor/graph/gen"
	"deltacolor/internal/dist"
	"deltacolor/local"
	"deltacolor/verify"
)

// TestDeterministicLayerSchedule pins the schedule of both layered
// pipelines on fault-free runs: one Linial coloring with k classes,
// reduced once to Δ+1 classes in a "reduce" phase of k-(Δ+1) rounds, then
// exactly Δ+1 rounds for every layer that has a node to color.
func TestDeterministicLayerSchedule(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.G
	}{
		{"rr4 n=256", gen.MustRandomRegular(rand.New(rand.NewSource(3)), 256, 4)},
		{"rr8 n=512", gen.MustRandomRegular(rand.New(rand.NewSource(5)), 512, 8)},
		{"torus 16x16", gen.Torus(16, 16)},
	}
	pipelines := []struct {
		name string
		run  func(*graph.G, int64) (*Result, error)
	}{{"deterministic", Deterministic}, {"netdec", DeterministicNetDec}}
	for _, tg := range graphs {
		_, k, _ := dist.Linial(local.NewNetwork(tg.g, 1))
		delta := tg.g.MaxDegree()
		for _, p := range pipelines {
			t.Run(tg.name+"/"+p.name, func(t *testing.T) {
				res, err := p.run(tg.g, 7)
				if err != nil {
					t.Fatal(err)
				}
				layers, reduce := 0, -1
				for _, ph := range res.Phases {
					switch {
					case ph.Name == "reduce":
						reduce = ph.Rounds
					case strings.HasPrefix(ph.Name, "layers["):
						layers++
						if ph.Rounds != delta+1 {
							t.Errorf("%s charged %d rounds, want Δ+1 = %d", ph.Name, ph.Rounds, delta+1)
						}
					}
				}
				if reduce != k-(delta+1) {
					t.Errorf("reduce charged %d rounds, want k-(Δ+1) = %d-%d", reduce, k, delta+1)
				}
				if layers == 0 {
					t.Error("no layer ran")
				}
			})
		}
	}
}

// TestLayerColorerUnusableSchedule drives the deterministic colorer under
// fault plans that spoil its schedule and checks that the layers defer to
// the repair instead of panicking:
//
//   - 90% drops in every run's first round make Linial's coloring
//     improper; the reduction rejects it, and every layer defers;
//   - a RoundLimit of 115 cuts the 116-round reduction one round short;
//     the nodes of the last class keep class -1, each layer that holds
//     one defers, and the other layers are colored properly.
func TestLayerColorerUnusableSchedule(t *testing.T) {
	g := gen.MustRandomRegular(rand.New(rand.NewSource(8)), 512, 4)
	delta := g.MaxDegree()
	layer := Layering(g, []int{0}, nil, -1)
	s := slices.Max(layer)
	cases := []struct {
		name string
		plan *local.FaultPlan
		// check inspects the colorer and returns the layers that must
		// defer.
		check func(t *testing.T, lc *LayerColorer) map[int]bool
	}{
		{"improper linial", &local.FaultPlan{Seed: 3, DropProb: 0.9, FromRound: 1, ToRound: 1, RoundLimit: 50_000},
			func(t *testing.T, lc *LayerColorer) map[int]bool {
				if lc.classErr == nil || !strings.Contains(lc.classErr.Error(), "not proper") {
					t.Fatalf("schedule error %v, want the reduction to reject an improper input", lc.classErr)
				}
				all := map[int]bool{}
				for i := 1; i <= s; i++ {
					all[i] = true
				}
				return all
			}},
		{"cut reduction", &local.FaultPlan{RoundLimit: 115},
			func(t *testing.T, lc *LayerColorer) map[int]bool {
				if lc.classErr != nil {
					t.Fatalf("schedule error %v, want a cut run without one", lc.classErr)
				}
				cut := map[int]bool{}
				for v, c := range lc.classes {
					if c == -1 && layer[v] >= 1 {
						cut[layer[v]] = true
					}
				}
				if len(cut) == 0 || len(cut) == s {
					t.Fatalf("the cut reached layers %v of 1..%d, want some but not all", cut, s)
				}
				return cut
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := local.SetDefaultFaultPlan(tc.plan); err != nil {
				t.Fatal(err)
			}
			defer func() { _ = local.SetDefaultFaultPlan(nil) }()
			lc := NewLayerColorer(g, delta, ListColorDeterministic, 1, &local.Accountant{})
			deferred := tc.check(t, lc)
			colors := slices.Repeat([]int{-1}, g.N())
			lc.ColorLayersReverse(colors, layer, s, "t")
			for v, l := range layer {
				if colored := colors[v] >= 0; l >= 1 && colored == deferred[l] {
					t.Fatalf("node %d in layer %d has color %d", v, l, colors[v])
				}
			}
			if err := verify.PartialColoring(g, colors, delta); err != nil {
				t.Fatalf("partial coloring: %v", err)
			}
		})
	}
}

// TestFinishCarriesResult: a coloring that fails the final check comes
// back as a *PartialError that carries the run's Result, colors and
// rounds included, under the pipeline's name.
func TestFinishCarriesResult(t *testing.T) {
	g := gen.Torus(4, 4)
	f, err := Start(g, "probe")
	if err != nil {
		t.Fatal(err)
	}
	f.Acct.Charge("p", 3)
	res, err := f.Finish(2)
	ce, ok := err.(*PartialError)
	if res != nil || !ok {
		t.Fatalf("Finish on an empty coloring: result %v, error %v; want a *PartialError", res, err)
	}
	if !strings.HasPrefix(ce.Error(), "probe: ") || ce.Result.Rounds != 3 || ce.Result.Repairs != 2 || !slices.Equal(ce.Result.Colors, f.Colors) {
		t.Fatalf("error %q with result %+v", ce, ce.Result)
	}
}

// TestRepairFailureCarriesResult: a repair that fails hands back the run
// as it left it, as a failed final check does. A RoundLimit of 1 cuts the
// MIS that schedules the repair batches before any node joins it, so the
// safety net on the all-uncolored 4x4 torus schedules an empty batch and
// fails. Its *PartialError carries the Result: the 16 holes as Repairs,
// the rounds charged so far (the probe's 3 and the empty batch's
// scheduling, charged as "repair-sched[0]"), and the coloring as the
// repair left it.
func TestRepairFailureCarriesResult(t *testing.T) {
	if err := local.SetDefaultFaultPlan(&local.FaultPlan{RoundLimit: 1}); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = local.SetDefaultFaultPlan(nil) }()
	f, err := Start(gen.Torus(4, 4), "probe")
	if err != nil {
		t.Fatal(err)
	}
	f.Acct.Charge("p", 3)
	holes, err := f.SafetyNet(1)
	pe, ok := err.(*PartialError)
	if holes != 16 || !ok {
		t.Fatalf("SafetyNet under RoundLimit 1: %d holes, error %v; want 16 and a *PartialError", holes, err)
	}
	if !strings.HasPrefix(pe.Error(), "probe: repair: ") || pe.Result.Repairs != 16 || pe.Result.Rounds <= 3 || !slices.Equal(pe.Result.Colors, f.Colors) {
		t.Fatalf("error %q with result %+v", pe, pe.Result)
	}
	if !slices.ContainsFunc(pe.Result.Phases, func(p local.PhaseStat) bool { return p.Name == "repair-sched[0]" && p.Rounds > 0 }) {
		t.Fatalf("the failed batch's scheduling is not charged: %v", pe.Result.Phases)
	}
}
