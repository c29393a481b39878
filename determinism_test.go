package deltacolor_test

// Golden determinism regression for the scheduler rework: for fixed seeds,
// every algorithm must return byte-identical colors, round counts and
// phase breakdowns across runtime changes. The golden values below were
// captured from the pre-sharding runtime (single global mutex barrier) and
// must never drift: the scheduler may get faster, never different.
//
// Re-pinned once in PR 4 when the Brooks safety net moved to the batched
// repair engine — an algorithmic change, not a scheduler change. Where the
// repairs were already independent (det-n256, netdec-n256: the B0 ruling
// set spaces every repair ball apart, one batch) colors, rounds and repair
// counts are byte-identical to the sequential engine and only the phase
// names changed. rand-n512-d4-s1 has two adjacent holes among its four, so
// MIS scheduling runs them in two batches and legitimately reorders the
// interacting pair; its colors hash and rounds were re-captured (the
// coloring passes verify.DeltaColoring and the repair count is unchanged).
//
// Re-pinned once more, for det-n256 and netdec-n256 only, when the layers
// came to be scheduled by one (Δ+1)-coloring instead of Linial's 121
// classes: a "reduce" phase of k-(Δ+1) = 116 rounds joins "linial", and
// every layer costs Δ+1 = 5 rounds instead of 121. The layers pick other
// colors in that order, so the colors hash moves too, and netdec's B0
// repair now fits one round.

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"deltacolor"
	"deltacolor/graph/gen"
)

func hashColors(xs []int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, x := range xs {
		for i := 0; i < 8; i++ {
			buf[i] = byte(uint64(x) >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

func phaseString(ps []deltacolor.PhaseStat) string {
	s := ""
	for _, p := range ps {
		s += fmt.Sprintf("%s:%d;", p.Name, p.Rounds)
	}
	return s
}

func TestColorDeterminismGoldens(t *testing.T) {
	cases := []struct {
		name    string
		n, d    int
		alg     deltacolor.Algorithm
		seed    int64
		colors  uint64
		rounds  int
		repairs int
		phases  string
	}{
		{
			name: "rand-n512-d4-s1", n: 512, d: 4, alg: deltacolor.AlgRandomized, seed: 1,
			colors: 0x4f3a9b47f4c91ca7, rounds: 269, repairs: 4,
			phases: "dcc-select:12;dcc-ruling-set:169;dcc-layers:26;marking:8;happy-layers:18;B[3]:3;B[2]:9;B[1]:5;B0-bruteforce:9;repair-sched[0]:4;repair-batch[0]:1;repair-sched[1]:4;repair-batch[1]:1;",
		},
		{
			name: "rand-n512-d8-s2", n: 512, d: 8, alg: deltacolor.AlgRandomized, seed: 2,
			colors: 0x3a5c7ae8bb510d07, rounds: 146, repairs: 0,
			phases: "dcc-select:8;dcc-ruling-set:81;dcc-layers:18;marking:8;happy-layers:12;B[2]:7;B[1]:7;B0-bruteforce:5;",
		},
		{
			name: "det-n256-d4-s3", n: 256, d: 4, alg: deltacolor.AlgDeterministic, seed: 3,
			colors: 0x90decf41bbbc5b44, rounds: 704, repairs: 0,
			phases: "ruling-set:544;layering:7;linial:1;reduce:116;layers[7]:5;layers[6]:5;layers[5]:5;layers[4]:5;layers[3]:5;layers[2]:5;layers[1]:5;brooks-B0-batch[0]:1;",
		},
		{
			name: "netdec-n256-d4-s4", n: 256, d: 4, alg: deltacolor.AlgNetDec, seed: 4,
			colors: 0x30c4460a52c27624, rounds: 519, repairs: 0,
			phases: "decomposition:31;ruling-set:328;layering:7;linial:1;reduce:116;layers[7]:5;layers[6]:5;layers[5]:5;layers[4]:5;layers[3]:5;layers[2]:5;layers[1]:5;brooks-B0-batch[0]:1;",
		},
		{
			name: "baseline-n256-d4-s5", n: 256, d: 4, alg: deltacolor.AlgBaseline, seed: 5,
			colors: 0xc424ae2e4a320a84, rounds: 359, repairs: 0,
			phases: "linial:1;reduce:116;greedy-sweeps:242;",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := gen.MustRandomRegular(rand.New(rand.NewSource(tc.seed)), tc.n, tc.d)
			res, err := deltacolor.Color(g, deltacolor.Options{Algorithm: tc.alg, Seed: tc.seed})
			if err != nil {
				t.Fatal(err)
			}
			if got := hashColors(res.Colors); got != tc.colors {
				t.Errorf("colors hash = %#x, want %#x", got, tc.colors)
			}
			if res.Rounds != tc.rounds {
				t.Errorf("rounds = %d, want %d", res.Rounds, tc.rounds)
			}
			if res.Repairs != tc.repairs {
				t.Errorf("repairs = %d, want %d", res.Repairs, tc.repairs)
			}
			if got := phaseString(res.Phases); got != tc.phases {
				t.Errorf("phases = %q, want %q", got, tc.phases)
			}
		})
	}
}
