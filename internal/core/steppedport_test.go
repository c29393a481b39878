package core

import (
	"fmt"
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

// TestRulingSetViaDecompositionMatchesCentral pins the ruling-set
// selection: the central pass must accept the exact same centers, in the
// same order, as the per-candidate central BFS probe. On the 30x60 grid
// balls stay local, and every case must also reject some center and
// accept centers from at least two classes, so blocking across classes
// and within one class both take part.
func TestRulingSetViaDecompositionMatchesCentral(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type tc struct {
		name  string
		g     *graph.G
		beta  float64
		seed  int64
		radii []int
		local bool // balls do not cover the graph
	}
	var cases []tc
	for _, c := range []struct {
		name string
		n, d int
		seed int64
	}{
		{"rr4-128", 128, 4, 1},
		{"rr3-256", 256, 3, 2},
		{"rr6-96", 96, 6, 3},
	} {
		beta := 1.0 / math.Max(1, math.Log(float64(c.n+2)))
		cases = append(cases, tc{c.name, gen.MustRandomRegular(rng, c.n, c.d), beta, c.seed, []int{3, 9, 27}, false})
	}
	grid := gen.Grid(30, 60)
	for _, beta := range []float64{0.3, 0.6} {
		cases = append(cases, tc{fmt.Sprintf("grid-30x60/beta=%v", beta), grid, beta, 1, []int{3, 5, 9}, true})
	}
	for _, c := range cases {
		dec := dist.Decompose(c.g, nil, c.beta, c.seed)
		classOf := make(map[int]int, len(dec.Centers))
		for ci, center := range dec.Centers {
			classOf[center] = dec.ClusterColor[ci]
		}
		for _, bigR := range c.radii {
			got := rulingSetViaDecomposition(c.g, dec, bigR)
			want := rulingSetCentral(c.g, dec, bigR)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s bigR=%d: base %v, central %v", c.name, bigR, got, want)
			}
			if !c.local {
				continue
			}
			classes := map[int]bool{}
			for _, center := range got {
				classes[classOf[center]] = true
			}
			if rejected := len(dec.Centers) - len(got); rejected == 0 || len(classes) < 2 {
				t.Fatalf("%s bigR=%d: %d rejected, accepted centers from %d classes: want a rejection and at least 2 classes", c.name, bigR, rejected, len(classes))
			}
		}
	}
}
