package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"deltacolor/graph"
	"deltacolor/graph/gen"
)

// maskGraph returns g with the edges incident to nodes outside mask
// removed. Frozen: the shattering phases built this copy of G[mask] before
// Layering and maskedComponents read g through the mask; it stays as the
// reference the masked traversals are checked against.
func maskGraph(g *graph.G, mask []bool) *graph.G {
	sub := graph.New(g.N())
	for _, e := range g.Edges() {
		if mask[e[0]] && mask[e[1]] {
			sub.MustEdge(e[0], e[1])
		}
	}
	return sub
}

// oracleLayering is the copy-based layering: MultiSourceDist on the
// masked copy, -1 outside the mask, and the cut-off loop the callers ran
// at maxDepth.
func oracleLayering(g *graph.G, sources []int, mask []bool, maxDepth int) []int {
	work := g
	if mask != nil {
		work = maskGraph(g, mask)
	}
	dist, _ := work.MultiSourceDist(sources)
	for v := range dist {
		if (mask != nil && !mask[v]) || (maxDepth >= 0 && dist[v] > maxDepth) {
			dist[v] = -1
		}
	}
	return dist
}

type maskedGraphCase struct {
	name string
	g    *graph.G
}

// maskedGraphCases are the property tests' graphs: random 4-regular
// graphs, tori and grids.
func maskedGraphCases(rng *rand.Rand) []maskedGraphCase {
	return []maskedGraphCase{
		{"rr4-150", gen.MustRandomRegular(rng, 150, 4)},
		{"rr4-400", gen.MustRandomRegular(rng, 400, 4)},
		{"torus-9x12", gen.Torus(9, 12)},
		{"grid-7x13", gen.Grid(7, 13)},
	}
}

// randomMask keeps each node with probability density; density 0 gives
// the empty mask.
func randomMask(rng *rand.Rand, n int, density float64) []bool {
	mask := make([]bool, n)
	for v := range mask {
		mask[v] = rng.Float64() < density
	}
	return mask
}

// TestLayeringMatchesMaskedCopy checks the masked Layering against
// MultiSourceDist on the maskGraph copy plus the old cut-off, with and
// without a depth bound, on random, empty and nil masks and with sources
// inside and outside the mask (duplicates included).
func TestLayeringMatchesMaskedCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, tc := range maskedGraphCases(rng) {
		n := tc.g.N()
		for _, density := range []float64{-1, 0, 0.3, 0.6, 0.9, 1} {
			var mask []bool // density < 0: no mask
			if density >= 0 {
				mask = randomMask(rng, n, density)
			}
			for trial := 0; trial < 4; trial++ {
				sources := make([]int, 1+rng.Intn(6))
				for i := range sources {
					sources[i] = rng.Intn(n)
				}
				sources = append(sources, sources[0])
				for _, maxDepth := range []int{-1, 0, 1, 2, 5} {
					name := fmt.Sprintf("%s/density=%v/trial=%d/maxDepth=%d", tc.name, density, trial, maxDepth)
					got := Layering(tc.g, sources, mask, maxDepth)
					if want := oracleLayering(tc.g, sources, mask, maxDepth); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s sources %v: masked layering diverges from the copy", name, sources)
					}
				}
			}
		}
	}
}

// TestMaskedComponentsMatchCopy checks maskedComponents against
// ConnectedComponents on the maskGraph copy: the same grouping, members
// ascending, components in the copy's relative order (the copy's
// singleton components of masked-out nodes dropped).
func TestMaskedComponentsMatchCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, tc := range maskedGraphCases(rng) {
		n := tc.g.N()
		for _, density := range []float64{0, 0.2, 0.45, 0.7, 1} {
			mask := randomMask(rng, n, density)
			want := groupByLabel(maskGraph(tc.g, mask), mask)
			if got := maskedComponents(tc.g, mask); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s density=%v: %d masked components, copy has %d, or their grouping or order differs", tc.name, density, len(got), len(want))
			}
		}
	}
}

// groupByLabel groups the masked nodes by their ConnectedComponents label
// on g, members ascending, components in label order, dropping the labels
// of masked-out nodes.
func groupByLabel(g *graph.G, mask []bool) [][]int {
	comp, count := g.ConnectedComponents()
	byComp := make([][]int, count)
	for v := range mask {
		if mask[v] {
			byComp[comp[v]] = append(byComp[comp[v]], v)
		}
	}
	var groups [][]int
	for _, c := range byComp {
		if len(c) > 0 {
			groups = append(groups, c)
		}
	}
	return groups
}

// TestMaskedComponentsOnDisconnectedGraphs runs the component pass with a
// full mask on graphs that are disconnected or have isolated nodes, the
// cases the stepped collector was pinned on: every node lands in exactly
// one component, and the grouping and order equal ConnectedComponents'.
func TestMaskedComponentsOnDisconnectedGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	isolatedMix := graph.New(25)
	for _, e := range [][2]int{{1, 2}, {2, 3}, {10, 11}, {20, 21}, {21, 22}, {22, 20}} {
		isolatedMix.MustEdge(e[0], e[1])
	}
	for _, tc := range []maskedGraphCase{
		{"path-20", gen.Path(20)},
		{"cycle-33", gen.Cycle(33)},
		{"rand-sparse", gen.GNPMaxDeg(rng, 120, 0.01, 120)},
		{"rand-medium", gen.GNPMaxDeg(rng, 80, 0.05, 80)},
		{"isolated-mix", isolatedMix},
		{"all-isolated", graph.New(9)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mask := slices.Repeat([]bool{true}, tc.g.N())
			got := maskedComponents(tc.g, mask)
			if want := groupByLabel(tc.g, mask); !reflect.DeepEqual(got, want) {
				t.Fatalf("components %v, want %v", got, want)
			}
			if total := len(slices.Concat(got...)); total != tc.g.N() {
				t.Fatalf("components cover %d nodes, want %d", total, tc.g.N())
			}
		})
	}
}

// TestLayeringDepthBoundAndMaskByHand pins the masked Layering contract
// on the path 0-1-...-7 with node 4 masked out, by hand rather than
// against the copy: the mask blocks the traversal, the depth bound cuts
// the layers, and a source outside the mask is ignored.
func TestLayeringDepthBoundAndMaskByHand(t *testing.T) {
	g := gen.Path(8)
	mask := slices.Repeat([]bool{true}, 8)
	mask[4] = false
	cases := []struct {
		sources  []int
		maxDepth int
		want     []int
	}{
		{[]int{0}, -1, []int{0, 1, 2, 3, -1, -1, -1, -1}},
		{[]int{0}, 2, []int{0, 1, 2, -1, -1, -1, -1, -1}},
		{[]int{0, 6}, 0, []int{0, -1, -1, -1, -1, -1, 0, -1}},
		{[]int{4}, -1, []int{-1, -1, -1, -1, -1, -1, -1, -1}},
		{[]int{4, 7, 1, 7}, 1, []int{1, 0, 1, -1, -1, -1, 1, 0}},
	}
	for _, tc := range cases {
		if got := Layering(g, tc.sources, mask, tc.maxDepth); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Layering(sources %v, maxDepth %d) = %v, want %v", tc.sources, tc.maxDepth, got, tc.want)
		}
	}
	if got, want := Layering(g, []int{4}, nil, 1), []int{-1, -1, -1, 1, 0, 1, -1, -1}; !reflect.DeepEqual(got, want) {
		t.Errorf("unmasked Layering from 4 at depth 1 = %v, want %v", got, want)
	}
}

// TestMarkingBackoffSpacing checks phase (4), whose backoff reads G[H]
// through a bounded masked Layering, against the frozen copy: the T-nodes
// lie more than b apart in G[H] (MultiSourceDist on the maskGraph copy),
// and each marks two non-adjacent H-neighbors that no other T-node marks.
func TestMarkingBackoffSpacing(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, tc := range maskedGraphCases(rng) {
		tnodeTotal := 0
		for trial := 0; trial < 12; trial++ {
			b := 2 + trial%3
			inH := randomMask(rng, tc.g.N(), 0.8)
			o := RandOptions{Seed: rng.Int63(), Backoff: b, P: 0.05}
			marked, isTNode := runMarking(tc.g, inH, o, rand.New(rand.NewSource(o.Seed)))
			var tnodes []int
			for v, ok := range isTNode {
				if ok {
					tnodes = append(tnodes, v)
				}
			}
			if len(marked) != 2*len(tnodes) {
				t.Fatalf("%s b=%d: %d marked for %d T-nodes", tc.name, b, len(marked), len(tnodes))
			}
			hCopy := maskGraph(tc.g, inH)
			seen := map[int]bool{}
			for i, v := range tnodes {
				dist, _ := hCopy.MultiSourceDist([]int{v})
				for _, u := range tnodes[i+1:] {
					if dist[u] >= 0 && dist[u] <= b {
						t.Fatalf("%s b=%d: T-nodes %d and %d are %d apart in G[H]", tc.name, b, v, u, dist[u])
					}
				}
				x, y := marked[2*i], marked[2*i+1]
				if !inH[v] || !inH[x] || !inH[y] || !tc.g.HasEdge(v, x) || !tc.g.HasEdge(v, y) || x == y || tc.g.HasEdge(x, y) {
					t.Fatalf("%s b=%d: T-node %d marked %d and %d, want two non-adjacent H-neighbors", tc.name, b, v, x, y)
				}
				if seen[x] || seen[y] {
					t.Fatalf("%s b=%d: T-node %d marks a node another T-node marked", tc.name, b, v)
				}
				seen[x], seen[y] = true, true
			}
			tnodeTotal += len(tnodes)
		}
		if tnodeTotal == 0 {
			t.Fatalf("%s: no T-node in any run; the spacing check saw nothing", tc.name)
		}
	}
}
