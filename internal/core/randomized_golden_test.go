package core

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

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

// TestRandomizedSmallComponentGolden pins Randomized runs that reach the
// small-component phase (phase 6). With R = 1 a random 4-regular graph
// has no DCC, so all of it is H, and the marking leaves components of L
// to anchor, rule and layer: the anchor discovery, its quotient ruling
// set and the D layers all run. Colors, rounds, repairs and phases were
// captured before the shattering phases read G[H] and G[L] through masks
// instead of copies, and must not drift.
func TestRandomizedSmallComponentGolden(t *testing.T) {
	cases := []struct {
		graphSeed int64
		n         int
		opts      RandOptions
		colors    uint64
		rounds    int
		repairs   int
		phases    string
	}{
		{
			graphSeed: 9, n: 512, opts: RandOptions{Seed: 3, R: 1, Backoff: 2, P: 0.2},
			colors: 0x96af7c3c87a04186, rounds: 358, repairs: 0,
			phases: "dcc-select:2;marking:4;happy-layers:3;small-anchors:38;small-ruling-set:273;small-layers:3;D[3]:3;D[2]:7;D[1]:7;small-anchors-color:9;C[3]:3;C[2]:3;C[1]:3;",
		},
		{
			graphSeed: 9, n: 512, opts: RandOptions{Seed: 4, R: 1, Backoff: 3},
			colors: 0x9df8f43cd316f6c6, rounds: 357, repairs: 0,
			phases: "dcc-select:2;marking:5;happy-layers:3;small-anchors:38;small-ruling-set:273;small-layers:3;D[3]:3;D[2]:5;D[1]:7;small-anchors-color:9;C[3]:3;C[2]:3;C[1]:3;",
		},
		{
			graphSeed: 10, n: 1024, opts: RandOptions{Seed: 3, R: 1, Backoff: 2, P: 0.2},
			colors: 0x962bdc33d8d68867, rounds: 394, repairs: 0,
			phases: "dcc-select:2;marking:4;happy-layers:3;small-anchors:42;small-ruling-set:301;small-layers:4;D[4]:3;D[3]:5;D[2]:5;D[1]:7;small-anchors-color:9;C[3]:3;C[2]:3;C[1]:3;",
		},
		{
			graphSeed: 10, n: 1024, opts: RandOptions{Seed: 4, R: 1, Backoff: 3},
			colors: 0x4425ac57cdd7b6e6, rounds: 397, repairs: 0,
			phases: "dcc-select:2;marking:5;happy-layers:3;small-anchors:42;small-ruling-set:301;small-layers:3;D[3]:5;D[2]:7;D[1]:7;small-anchors-color:11;C[3]:5;C[2]:3;C[1]:3;",
		},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("n=%d/seed=%d", tc.n, tc.opts.Seed), func(t *testing.T) {
			g := gen.MustRandomRegular(rand.New(rand.NewSource(tc.graphSeed)), tc.n, 4)
			res, err := Randomized(g, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			phases := ""
			for _, p := range res.Phases {
				phases += fmt.Sprintf("%s:%d;", p.Name, p.Rounds)
			}
			if h := hashColors(res.Colors); h != tc.colors || res.Rounds != tc.rounds || res.Repairs != tc.repairs || phases != tc.phases {
				t.Fatalf("colors %#x rounds %d repairs %d phases %s\nwant   %#x rounds %d repairs %d phases %s",
					h, res.Rounds, res.Repairs, phases, tc.colors, tc.rounds, tc.repairs, tc.phases)
			}
		})
	}
}
