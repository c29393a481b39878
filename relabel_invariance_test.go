package deltacolor_test

// External-ID invariance golden for the cache-locality relabeling: the
// LOCAL runtime may lay its tables out in any internal order, but every
// observable result — colors, rounds, repair counts, phase breakdowns —
// must be byte-identical with relabeling on (the default, which the
// pinned goldens in determinism_test.go already run under) and off (the
// local.SetRelabel ablation). A divergence here means an ID crossed the
// translation boundary untranslated.

import (
	"math/rand"
	"reflect"
	"testing"

	"deltacolor"
	"deltacolor/graph/gen"
	"deltacolor/local"
)

func TestRelabelInvarianceAcrossPipelines(t *testing.T) {
	cases := []struct {
		name string
		n, d int
		alg  deltacolor.Algorithm
		seed int64
	}{
		{name: "rand", n: 256, d: 4, alg: deltacolor.AlgRandomized, seed: 1},
		{name: "det", n: 128, d: 4, alg: deltacolor.AlgDeterministic, seed: 3},
		{name: "netdec", n: 128, d: 4, alg: deltacolor.AlgNetDec, seed: 4},
		{name: "baseline", n: 256, d: 4, alg: deltacolor.AlgBaseline, seed: 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := gen.MustRandomRegular(rand.New(rand.NewSource(tc.seed)), tc.n, tc.d)
			run := func(relabel bool) *deltacolor.Result {
				prev := local.RelabelEnabled()
				local.SetRelabel(relabel)
				defer local.SetRelabel(prev)
				res, err := deltacolor.Color(g, deltacolor.Options{Algorithm: tc.alg, Seed: tc.seed})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			on, off := run(true), run(false)
			if !reflect.DeepEqual(on.Colors, off.Colors) {
				t.Errorf("colors differ between relabel on and off")
			}
			if on.Rounds != off.Rounds {
				t.Errorf("rounds differ: on=%d off=%d", on.Rounds, off.Rounds)
			}
			if on.Repairs != off.Repairs {
				t.Errorf("repairs differ: on=%d off=%d", on.Repairs, off.Repairs)
			}
			if !reflect.DeepEqual(on.Phases, off.Phases) {
				t.Errorf("phase breakdowns differ:\non:  %v\noff: %v", on.Phases, off.Phases)
			}
		})
	}
}
