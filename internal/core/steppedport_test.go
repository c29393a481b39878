package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"deltacolor/graph"
	"deltacolor/graph/gen"
	"deltacolor/internal/dist"
)

// rulingSetCentral is the reference for rulingSetViaDecomposition: the
// per-candidate central probe, which accepts a center iff no
// already-chosen node lies within distance bigR-1 of it.
func rulingSetCentral(g *graph.G, dec *dist.Decomposition, bigR int) []int {
	var base []int
	chosen := make([]bool, g.N())
	for class := 0; class < dec.NumColors; class++ {
		for ci, center := range dec.Centers {
			if dec.ClusterColor[ci] != class {
				continue
			}
			ok := true
			for _, u := range g.BFSLimited(center, bigR-1).Order {
				if chosen[u] {
					ok = false
					break
				}
			}
			if ok {
				chosen[center] = true
				base = append(base, center)
			}
		}
	}
	return base
}

// TestRulingSetViaDecompositionSteppedMatchesCentral pins the ruling-set
// selection: the per-class stepped flood must accept the exact same
// centers, in the same order, as the per-candidate central BFS probe.
func TestRulingSetViaDecompositionSteppedMatchesCentral(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := []struct {
		name string
		n, d int
		seed int64
	}{
		{"rr4-128", 128, 4, 1},
		{"rr3-256", 256, 3, 2},
		{"rr6-96", 96, 6, 3},
	}
	for _, tc := range cases {
		g := gen.MustRandomRegular(rng, tc.n, tc.d)
		beta := 1.0 / math.Max(1, math.Log(float64(tc.n+2)))
		dec := dist.Decompose(g, nil, beta, tc.seed)
		for _, bigR := range []int{3, 9, 27} {
			stepped := rulingSetViaDecomposition(g, dec, bigR)
			central := rulingSetCentral(g, dec, bigR)
			if !reflect.DeepEqual(stepped, central) {
				t.Fatalf("%s bigR=%d: stepped base %v, central %v", tc.name, bigR, stepped, central)
			}
		}
	}
}
