package deltacolor_test

// Golden determinism regression for the fault-injection layer: a fixed
// graph, Options, FaultPlan and mutation stream must produce
// byte-identical colors, round counts, phase logs and repair stats
// forever. The fault schedule is a pure hash of (plan seed, run sequence,
// round, slot), so nothing here may drift when the scheduler, batching or
// worker count changes — only a deliberate change to the fault hash or
// the repair engine may re-pin these values.

import (
	"math/rand"
	"testing"

	"deltacolor"
	"deltacolor/graph/gen"
	"deltacolor/local"
)

func TestFaultRunDeterminismGolden(t *testing.T) {
	g := gen.MustRandomRegular(rand.New(rand.NewSource(17)), 256, 4)
	opts := deltacolor.Options{Algorithm: deltacolor.AlgRandomized, Seed: 17}
	plan := &local.FaultPlan{
		Seed:     4242,
		DropProb: 0.01, DupProb: 0.02, DelayProb: 0.04, MaxDelay: 2,
		FromRound: 1, ToRound: 60,
		Crashes:    []local.CrashWindow{{Node: 7, From: 3, To: 9}, {Node: 200, From: 5, To: 6}},
		RoundLimit: 50_000,
	}
	res, stats, err := deltacolor.ColorUnderFaults(g, opts, plan)
	if err != nil {
		t.Fatal(err)
	}

	// Captured from the first implementation of the fault layer. The
	// drops/delays land inside the DCC and color-trial phases and the
	// Brooks safety net absorbs the damage — note the repair bill (six
	// batches, ~12k scheduling rounds) versus 234 rounds for the same
	// seed fault-free: the faults are real, and the net still converges
	// to a verified coloring with zero residual conflicts.
	const (
		wantColors = uint64(0x7fac2bc91b1c7fa4)
		wantRounds = 12551
		wantPhases = "dcc-select:12;dcc-ruling-set:143;dcc-layers:26;marking:8;happy-layers:18;B[3]:3;B[2]:128;B[1]:134;B0-bruteforce:9;repair-sched[0]:9035;repair-batch[0]:1;repair-sched[1]:156;repair-batch[1]:1;repair-sched[2]:1443;repair-batch[2]:14;repair-sched[3]:1339;repair-batch[3]:1;repair-sched[4]:52;repair-batch[4]:14;repair-batch[5]:14;"
	)
	wantStats := deltacolor.RecolorStats{}

	if got := hashColors(res.Colors); got != wantColors {
		t.Errorf("colors hash = %#x, want %#x", got, wantColors)
	}
	if res.Rounds != wantRounds {
		t.Errorf("rounds = %d, want %d", res.Rounds, wantRounds)
	}
	if got := phaseString(res.Phases); got != wantPhases {
		t.Errorf("phases = %q, want %q", got, wantPhases)
	}
	if *stats != wantStats {
		t.Errorf("repair stats = %+v, want %+v", *stats, wantStats)
	}
}

// TestChurnRecolorDeterminismGolden pins a scripted mutation stream on a
// live network followed by an incremental Recolor: the coloring-as-a-
// service loop. Colors, repair stats and the engine outputs after churn
// must never drift.
func TestChurnRecolorDeterminismGolden(t *testing.T) {
	g := gen.MustRandomRegular(rand.New(rand.NewSource(23)), 256, 4)
	res, err := deltacolor.Color(g, deltacolor.Options{Algorithm: deltacolor.AlgRandomized, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	colors := res.Colors

	net := local.NewNetwork(g, 7)
	rng := rand.New(rand.NewSource(7))
	inserted := 0
	for inserted < 10 {
		u, v := rng.Intn(256), rng.Intn(256)
		if u == v || g.HasEdge(u, v) {
			continue
		}
		if err := net.AddEdge(u, v); err != nil {
			t.Fatal(err)
		}
		inserted++
	}
	es := g.Edges()
	for k := 0; k < 5; k++ {
		e := es[(k*37)%len(es)]
		if err := net.RemoveEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	nv := net.AddNode()
	for _, u := range []int{3, 77, 191} {
		if err := net.AddEdge(nv, u); err != nil {
			t.Fatal(err)
		}
	}
	colors = append(colors, -1)

	delta := g.MaxDegree()
	stats, err := deltacolor.Recolor(g, colors, delta, 23)
	if err != nil {
		t.Fatal(err)
	}

	const (
		wantDelta  = 6
		wantColors = uint64(0x7548b24fdcee4e67)
	)
	wantStats := deltacolor.RecolorStats{Conflicts: 5, Repaired: 5, Changed: 5, RepairBatches: 2, RepairRounds: 6}

	if delta != wantDelta {
		t.Errorf("post-churn Δ = %d, want %d", delta, wantDelta)
	}
	if got := hashColors(colors); got != wantColors {
		t.Errorf("colors hash = %#x, want %#x", got, wantColors)
	}
	if *stats != wantStats {
		t.Errorf("recolor stats = %+v, want %+v", *stats, wantStats)
	}
}

// TestFaultDeterministicPipelinesGolden pins the two deterministic
// pipelines under 2% message drops. Their layers are colored by
// ListColorDeterministic, whose colored nodes re-announce their final
// color every round, so a dropped announcement is usually heard a round
// later. Announcing each final only once leaves conflicts in the det
// layers that need repair batches, and the det values move.
//
// The layers are scheduled by one (Δ+1)-coloring, reduced from Linial's
// under the same drops, and last 5 rounds each where they lasted 121, so
// a dropped final has fewer rounds to be heard again. In both pipelines
// the drops leave two layers unsolved, and both defer to the pipeline's
// repair batches: layer 6 ends with a monochromatic edge after its 5
// rounds, and layer 5 meets improper classes and does not run (charged 0
// rounds). netdec then ends one conflict short of a Δ-coloring; its
// final check fails, and ColorUnderFaults hands the coloring to Recolor,
// which repairs that one node (the repair stats). Before the coloring of
// a failed final check reached Recolor, that case ended ErrUnrecoverable.
func TestFaultDeterministicPipelinesGolden(t *testing.T) {
	g := gen.MustRandomRegular(rand.New(rand.NewSource(1)), 512, 4)
	plan := &local.FaultPlan{Seed: 7, DropProb: 0.02, RoundLimit: 50_000}
	cases := []struct {
		name   string
		alg    deltacolor.Algorithm
		colors uint64
		rounds int
		phases string
		stats  deltacolor.RecolorStats
	}{
		{
			// Five repair batches inside the pipeline heal layers 6 and 5.
			name: "det", alg: deltacolor.AlgDeterministic,
			colors: 0xc5c1cebe6661b845, rounds: 935,
			phases: "ruling-set:666;layering:7;linial:1;reduce:116;layers[7]:5;layers[6]:5;layers[5]:0;layers[4]:5;layers[3]:5;layers[2]:5;layers[1]:5;brooks-B0-batch[0]:1;repair-sched[0]:8;repair-batch[0]:1;repair-sched[1]:6;repair-batch[1]:1;repair-sched[2]:4;repair-batch[2]:1;repair-sched[3]:78;repair-batch[3]:1;repair-batch[4]:14;",
		},
		{
			// Six repair batches inside the pipeline leave one conflict;
			// Recolor repairs it.
			name: "netdec", alg: deltacolor.AlgNetDec,
			colors: 0xe574615a49a4dbc5, rounds: 542,
			phases: "decomposition:52;ruling-set:90;layering:7;linial:1;reduce:116;layers[7]:5;layers[6]:5;layers[5]:0;layers[4]:5;layers[3]:5;layers[2]:5;layers[1]:5;brooks-B0-batch[0]:1;repair-sched[0]:8;repair-batch[0]:1;repair-sched[1]:6;repair-batch[1]:1;repair-sched[2]:136;repair-batch[2]:1;repair-sched[3]:68;repair-batch[3]:18;repair-sched[4]:4;repair-batch[4]:1;repair-batch[5]:1;",
			stats:  deltacolor.RecolorStats{Conflicts: 1, Repaired: 1, Changed: 1, RepairBatches: 1, RepairRounds: 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, stats, err := deltacolor.ColorUnderFaults(g, deltacolor.Options{Algorithm: tc.alg, Seed: 1}, plan)
			if err != nil {
				t.Fatal(err)
			}
			if got := hashColors(res.Colors); got != tc.colors {
				t.Errorf("colors hash = %#x, want %#x", got, tc.colors)
			}
			if res.Rounds != tc.rounds {
				t.Errorf("rounds = %d, want %d", res.Rounds, tc.rounds)
			}
			if got := phaseString(res.Phases); got != tc.phases {
				t.Errorf("phases = %q, want %q", got, tc.phases)
			}
			if *stats != tc.stats {
				t.Errorf("repair stats = %+v, want %+v", *stats, tc.stats)
			}
		})
	}
}
