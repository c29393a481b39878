package local

import (
	"sort"
	"testing"

	"deltacolor/graph"
)

// quotientGroups builds an assortment of groups over a random graph:
// disjoint blobs, a singleton, and two overlapping groups (sharing a
// node), covering every adjacency rule of the quotient construction.
func quotientGroups(g *graph.G) [][]int {
	n := g.N()
	groups := [][]int{
		{0, 1, 2},
		{5},
		{n / 2, n/2 + 1},
		{n/2 + 1, n/2 + 2}, // overlaps the previous group
	}
	for i := 0; i+10 < n; i += 17 {
		groups = append(groups, []int{i + 7, i + 8})
	}
	return groups
}

// TestQuotientNetworkMatchesGraphQuotient checks that the port-table
// construction produces exactly the edge set of graph.Quotient.
func TestQuotientNetworkMatchesGraphQuotient(t *testing.T) {
	g := randomGraph(120, 0.05, 11)
	groups := quotientGroups(g)

	want := graph.Quotient(g, groups)
	got := QuotientNetwork(g, groups, 3).Graph()

	if got.N() != want.N() || got.M() != want.M() {
		t.Fatalf("quotient shape: got n=%d m=%d, want n=%d m=%d", got.N(), got.M(), want.N(), want.M())
	}
	for v := 0; v < want.N(); v++ {
		a := append([]int(nil), want.Neighbors(v)...)
		b := append([]int(nil), got.Neighbors(v)...)
		sort.Ints(a)
		sort.Ints(b)
		if len(a) != len(b) {
			t.Fatalf("node %d: degree %d vs %d", v, len(b), len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("node %d: neighbors %v vs %v", v, b, a)
			}
		}
	}
}

// TestQuotientNetworkRunsProtocols runs a port-order-independent protocol
// on both constructions and requires identical outputs: the quotient
// network is a drop-in replacement for NewNetwork(graph.Quotient(...)).
func TestQuotientNetworkRunsProtocols(t *testing.T) {
	g := randomGraph(90, 0.06, 13)
	groups := quotientGroups(g)

	// Aggregate protocol: sum of neighbor IDs over two rounds (invariant
	// under port reordering).
	proto := func(out []int) Stepped[roundState[int]] {
		return roundProgram(func(ctx *Ctx, sum *int, round int) bool {
			for p := 0; p < ctx.Degree(); p++ {
				if m, ok := ctx.RecvInt(p); ok {
					*sum += m
				}
			}
			if round == 2 {
				out[ctx.ID()] = *sum
				return false
			}
			ctx.BroadcastInt(ctx.ID() + *sum)
			return true
		})
	}
	want, got := make([]int, len(groups)), make([]int, len(groups))
	RunStepped(NewNetwork(graph.Quotient(g, groups), 3), proto(want))
	RunStepped(QuotientNetwork(g, groups, 3), proto(got))
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("quotient node %d: %v vs %v", v, got[v], want[v])
		}
	}
}

// TestQuotientBuilderReusedMatchesFresh checks that a builder reused
// across many builds (the batched-repair shape: different group sets over
// one parent) produces exactly the graph a fresh QuotientNetwork call
// does, including after groups that exercise the shared-member spill map.
func TestQuotientBuilderReusedMatchesFresh(t *testing.T) {
	g := randomGraph(120, 0.05, 11)
	qb := NewQuotientBuilder(g)
	groupSets := [][][]int{
		quotientGroups(g),
		{{3, 4}, {10, 11, 12}, {40}},
		{{0, 1, 2}, {2, 3, 4}, {90, 91}}, // overlap again, fresh epoch
		quotientGroups(g),
	}
	for si, groups := range groupSets {
		want := QuotientNetwork(g, groups, 3).Graph()
		got := qb.Build(groups, 3).Graph()
		if got.N() != want.N() || got.M() != want.M() {
			t.Fatalf("set %d: got n=%d m=%d, want n=%d m=%d", si, got.N(), got.M(), want.N(), want.M())
		}
		for v := 0; v < want.N(); v++ {
			a := append([]int(nil), want.Neighbors(v)...)
			b := append([]int(nil), got.Neighbors(v)...)
			sort.Ints(a)
			sort.Ints(b)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("set %d node %d: neighbors %v vs %v", si, v, b, a)
				}
			}
		}
	}
}

// BenchmarkQuotientBuild measures the quotient construction over a large
// parent with a small group set — the batched-repair shape. "fresh" pays
// the O(n) owner table per build; "reused" amortizes it through the
// epoch-stamped QuotientBuilder.
func BenchmarkQuotientBuild(b *testing.B) {
	g := randomGraph(100_000, 4.0/100_000, 7)
	var groups [][]int
	for v := 0; v+1 < g.N(); v += 397 {
		groups = append(groups, []int{v, v + 1})
	}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			QuotientNetwork(g, groups, 1)
		}
	})
	b.Run("reused", func(b *testing.B) {
		qb := NewQuotientBuilder(g)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			qb.Build(groups, 1)
		}
	})
}

// TestQuotientNetworkSharedMemberAdjacent pins the safety property the
// anchor ruling set and the batched repair engine both rely on: two groups
// that share a member are always adjacent in the quotient, so an MIS over
// the quotient network can never select both. (core.discoverAnchors
// additionally keeps anchor groups disjoint by construction; this is the
// backstop for group sets that do overlap, like realized repair balls.)
func TestQuotientNetworkSharedMemberAdjacent(t *testing.T) {
	g := graph.New(6)
	g.MustEdge(0, 1)
	g.MustEdge(1, 2)
	g.MustEdge(2, 3)
	g.MustEdge(3, 4)
	g.MustEdge(4, 5)
	cases := [][][]int{
		{{0, 1, 2}, {2, 3, 4}},         // share node 2
		{{0, 1}, {1, 2}, {2, 3}},       // chain of overlaps
		{{0, 1, 2, 3}, {3}, {3, 4, 5}}, // singleton inside both
	}
	for ci, groups := range cases {
		net := QuotientNetwork(g, groups, 1)
		qg := net.Graph()
		for a := 0; a < len(groups); a++ {
			inA := map[int]bool{}
			for _, v := range groups[a] {
				inA[v] = true
			}
			for b := a + 1; b < len(groups); b++ {
				shared := false
				for _, v := range groups[b] {
					if inA[v] {
						shared = true
						break
					}
				}
				if shared && !qg.HasEdge(a, b) {
					t.Fatalf("case %d: groups %d and %d share a member but are not adjacent", ci, a, b)
				}
			}
		}
	}
}
