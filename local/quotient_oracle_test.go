package local

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"deltacolor/graph"
	"deltacolor/graph/gen"
)

// oracleQuotientAdj is a frozen copy of the map-based quotient
// construction the interned owner sets replaced: owners kept as a first
// owner per node plus a spill map of further owners, linked in group
// order. It returns the adjacency lists QuotientBuilder.Build must
// reproduce list by list — order included, since an installed FaultPlan
// hashes its decisions by directed-edge slot.
func oracleQuotientAdj(parent *graph.G, groups [][]int) [][]int {
	n := parent.N()
	first := make([]int32, n)
	owned := make([]bool, n)
	var extra map[int][]int32
	for gi, grp := range groups {
		for _, v := range grp {
			if !owned[v] {
				owned[v] = true
				first[v] = int32(gi)
			} else {
				if extra == nil {
					extra = map[int][]int32{}
				}
				extra[v] = append(extra[v], int32(gi))
			}
		}
	}
	adj := make([][]int, len(groups))
	mark := make([]int, len(groups))
	for i := range mark {
		mark[i] = -1
	}
	link := func(gi, o int) {
		if o != gi && mark[o] != gi {
			mark[o] = gi
			adj[gi] = append(adj[gi], o)
		}
	}
	for gi, grp := range groups {
		for _, v := range grp {
			link(gi, int(first[v]))
			for _, o := range extra[v] {
				link(gi, int(o))
			}
			for _, u := range parent.Neighbors(v) {
				if owned[u] {
					link(gi, int(first[u]))
					for _, oo := range extra[u] {
						link(gi, int(oo))
					}
				}
			}
		}
	}
	return adj
}

// checkQuotientOrder builds groups with qb and compares every adjacency
// list with the oracle's, in order.
func checkQuotientOrder(t *testing.T, qb *QuotientBuilder, parent *graph.G, groups [][]int, label string) {
	t.Helper()
	want := oracleQuotientAdj(parent, groups)
	got := qb.Build(groups, 1).Graph()
	if got.N() != len(want) {
		t.Fatalf("%s: %d quotient nodes, want %d", label, got.N(), len(want))
	}
	for gi, w := range want {
		if g := got.Neighbors(gi); !slices.Equal(g, w) {
			t.Fatalf("%s: group %d adjacency %v, want %v", label, gi, g, w)
		}
	}
}

// ballGroups returns radius-r balls around random centers, in BFS order:
// the realized repair balls the batched Brooks engine quotients, which
// overlap heavily once r reaches the graph's diameter.
func ballGroups(rng *rand.Rand, g *graph.G, count, maxR int) [][]int {
	groups := make([][]int, count)
	for i := range groups {
		groups[i] = g.Ball(rng.Intn(g.N()), rng.Intn(maxR+1))
	}
	return groups
}

// subsetGroups returns arbitrary member lists, repeats included, some
// empty, some listing one node several times.
func subsetGroups(rng *rand.Rand, n, count int) [][]int {
	groups := make([][]int, count)
	for i := range groups {
		size := rng.Intn(12)
		for j := 0; j < size; j++ {
			v := rng.Intn(n)
			groups[i] = append(groups[i], v)
			if rng.Intn(4) == 0 {
				groups[i] = append(groups[i], v) // adjacent repeat
			}
		}
	}
	return groups
}

// TestQuotientBuildMatchesOracleOrder compares the interned-owner-set
// construction with the frozen map-based one on random regular graphs,
// over ball groups (from disjoint to nearly all-covering) and arbitrary
// subsets with repeated members, through fresh and reused builders.
func TestQuotientBuildMatchesOracleOrder(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n, d := 64+32*int(seed), 3+int(seed)%3
		g, err := gen.RandomRegular(rng, n, d)
		if err != nil {
			t.Fatal(err)
		}
		reused := NewQuotientBuilder(g)
		for round := 0; round < 8; round++ {
			sets := map[string][][]int{
				"balls":   ballGroups(rng, g, 1+rng.Intn(40), 1+round),
				"subsets": subsetGroups(rng, n, 1+rng.Intn(30)),
			}
			for _, kind := range []string{"balls", "subsets"} {
				label := fmt.Sprintf("seed %d round %d %s", seed, round, kind)
				checkQuotientOrder(t, NewQuotientBuilder(g), g, sets[kind], label+" fresh")
				checkQuotientOrder(t, reused, g, sets[kind], label+" reused")
			}
		}
	}
}

// TestQuotientBuildEpochWrap reuses a builder across wraps of its epoch:
// every odd build starts at epoch -1 and so wraps to 1, the stamp the
// first build left on its members, which must not read as owned.
func TestQuotientBuildEpochWrap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, err := gen.RandomRegular(rng, 96, 4)
	if err != nil {
		t.Fatal(err)
	}
	qb := NewQuotientBuilder(g)
	for i := 0; i < 6; i++ {
		if i%2 == 1 {
			qb.epoch = -1
		}
		checkQuotientOrder(t, qb, g, ballGroups(rng, g, 12, 3), fmt.Sprintf("build %d", i))
	}
}

// FuzzQuotientBuild decodes a graph and two group sets from a script and
// compares both builds of one reused builder with the oracle, list by
// list. Each script byte with the high bit set opens a new group; every
// byte adds the member b mod n, so repeats and empty groups arise freely.
func FuzzQuotientBuild(f *testing.F) {
	f.Add(int64(1), uint8(20), []byte{0x80, 1, 2, 3, 0x81, 3, 3, 4, 0x82, 9, 0x83})
	f.Add(int64(7), uint8(48), []byte{0x80, 0, 1, 2, 3, 4, 5, 6, 7, 0x80, 7, 6, 5, 0xff, 0xfe, 0x90})
	f.Add(int64(-3), uint8(2), []byte{0, 1, 0x80, 0x81, 1, 0})
	f.Fuzz(func(t *testing.T, seed int64, size uint8, script []byte) {
		n := 2 + int(size)%63
		g := graph.New(n)
		rng := rand.New(rand.NewSource(seed))
		p := rng.Float64() * 0.3
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < p {
					g.MustEdge(u, v)
				}
			}
		}
		qb := NewQuotientBuilder(g)
		half := len(script) / 2
		for i, part := range [][]byte{script[:half], script[half:]} {
			var groups [][]int
			for _, b := range part {
				if b&0x80 != 0 || len(groups) == 0 {
					groups = append(groups, nil)
				}
				last := len(groups) - 1
				groups[last] = append(groups[last], int(b)%n)
			}
			checkQuotientOrder(t, qb, g, groups, fmt.Sprintf("build %d", i))
		}
	})
}
