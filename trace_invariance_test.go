package deltacolor_test

// Tracing must be observation-only: installing a tracer (even at full
// level, with span collection in every pipeline) may not change a single
// color, round charge, or phase name. The goldens in determinism_test.go
// pin the untraced outputs; this test pins traced == untraced directly
// for every pipeline, plus the span/snapshot surface that only exists
// when tracing is on.

import (
	"math/rand"
	"testing"

	"deltacolor"
	"deltacolor/graph/gen"
	"deltacolor/local"
)

func TestTracingDoesNotPerturbColorings(t *testing.T) {
	cases := []struct {
		name string
		n, d int
		alg  deltacolor.Algorithm
		seed int64
	}{
		{name: "rand-n512-d4", n: 512, d: 4, alg: deltacolor.AlgRandomized, seed: 1},
		{name: "rand-n512-d8", n: 512, d: 8, alg: deltacolor.AlgRandomized, seed: 2},
		{name: "det-n256-d4", n: 256, d: 4, alg: deltacolor.AlgDeterministic, seed: 3},
		{name: "netdec-n256-d4", n: 256, d: 4, alg: deltacolor.AlgNetDec, seed: 4},
		{name: "baseline-n256-d4", n: 256, d: 4, alg: deltacolor.AlgBaseline, seed: 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := gen.MustRandomRegular(rand.New(rand.NewSource(tc.seed)), tc.n, tc.d)
			opts := deltacolor.Options{Algorithm: tc.alg, Seed: tc.seed}

			local.SetDefaultTracer(nil)
			plain, err := deltacolor.Color(g, opts)
			if err != nil {
				t.Fatalf("untraced run: %v", err)
			}
			if plain.Span != nil {
				t.Fatalf("untraced run returned a span")
			}

			tr := local.NewTracer(local.TraceFull, 0)
			local.SetDefaultTracer(tr)
			defer local.SetDefaultTracer(nil)
			traced, err := deltacolor.Color(g, opts)
			local.SetDefaultTracer(nil)
			if err != nil {
				t.Fatalf("traced run: %v", err)
			}

			if hashColors(traced.Colors) != hashColors(plain.Colors) {
				t.Fatalf("tracing changed the coloring: %#x vs %#x", hashColors(traced.Colors), hashColors(plain.Colors))
			}
			if traced.Rounds != plain.Rounds || traced.Repairs != plain.Repairs || traced.RepairBatches != plain.RepairBatches {
				t.Fatalf("tracing changed accounting: rounds %d/%d repairs %d/%d batches %d/%d",
					traced.Rounds, plain.Rounds, traced.Repairs, plain.Repairs, traced.RepairBatches, plain.RepairBatches)
			}
			if phaseString(traced.Phases) != phaseString(plain.Phases) {
				t.Fatalf("tracing changed phases:\ntraced %s\nplain  %s", phaseString(traced.Phases), phaseString(plain.Phases))
			}

			// The traced run must additionally expose the timeline: a root
			// span whose rolled-up rounds equal the run's total, and engine
			// counters that actually observed the pipelines' networks.
			if traced.Span == nil {
				t.Fatalf("traced run returned no span")
			}
			if traced.Span.Rounds != traced.Rounds {
				t.Fatalf("span rollup %d rounds != result %d", traced.Span.Rounds, traced.Rounds)
			}
			if len(traced.Span.Children) == 0 {
				t.Fatalf("root span has no children")
			}
			c := tr.Counters()
			if c.Runs == 0 || c.Rounds == 0 || c.Messages() == 0 {
				t.Fatalf("tracer observed nothing: %+v", c)
			}

			// Every span, down to each repair batch's leaves, charges at
			// least the engine rounds that start inside it.
			rounds := tr.Rounds()
			if int64(len(rounds)) != c.Rounds {
				t.Fatalf("the ring kept %d of %d engine rounds", len(rounds), c.Rounds)
			}
			traced.Span.Walk(func(sp *local.Span, _ int) {
				ran := 0
				for _, r := range rounds {
					if r.StartNanos >= sp.StartNanos && r.StartNanos < sp.StartNanos+sp.DurNanos {
						ran++
					}
				}
				if ran > sp.Rounds {
					t.Errorf("span %q charges %d rounds, but %d engine rounds start inside it", sp.Name, sp.Rounds, ran)
				}
			})
		})
	}
}
