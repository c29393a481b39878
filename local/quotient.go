package local

import (
	"fmt"
	"slices"

	"deltacolor/graph"
)

// QuotientNetwork builds the network of the quotient graph of parent under
// groups — one quotient node per group, adjacent when two groups share a
// member or parent has an edge between them — directly from the parent's
// port tables (its adjacency lists).
//
// The DCC and ruling-set phases of the Δ-coloring algorithms construct
// such virtual networks once per phase. graph.Quotient + NewNetwork costs
// O(m) for the full-edge scan plus a per-edge HasEdge dedupe that is
// quadratic in quotient degree; this construction touches only the
// groups' own edges and dedupes with an O(q) stamp array, so the whole
// build is linear in Σ_groups (|group| + deg(group)), plus the owner lists
// of the distinct owner sets each group's scan meets (QuotientBuilder).
//
// The quotient's edge set is identical to graph.Quotient's, but its
// adjacency order generally differs, and that order is part of the
// output: group gi lists its neighbors in the order its scan first meets
// them (members in group order, each member's own owners and then its
// parent-neighbors' owners, owners in ascending group index). Fault-free
// protocols do not depend on port order, but an installed FaultPlan
// hashes its decisions by directed-edge slot, so under faults a different
// order — even of the same edge set — changes which messages are dropped,
// duplicated or delayed. quotient_oracle_test.go pins the order list by
// list.
func QuotientNetwork(parent *graph.G, groups [][]int, seed int64) *Network {
	return NewQuotientBuilder(parent).Build(groups, seed)
}

// QuotientBuilder builds quotient networks of one parent graph repeatedly,
// amortizing the owner table. A fresh QuotientNetwork call pays two O(n)
// passes over a node-indexed owner array (allocation zeroing plus the
// reset to "no owner") regardless of how small the groups are; a caller
// that quotients the same parent once per iteration — the batched Brooks
// repair engine schedules an MIS over hole balls every iteration — paid
// that O(n) each time, a quadratic total against shrinking hole counts.
// The builder keeps the array across Build calls and validates entries
// with an epoch stamp, so build i>0 touches only the groups' own nodes
// and edges. Not safe for concurrent use.
//
// Owner sets are interned: nodes owned by the same groups share one set
// ID, so a node in many overlapping groups (realized repair balls can each
// cover most of the graph) costs one table entry, not a list of owners.
type QuotientBuilder struct {
	parent *graph.G
	// set[v] is the ID of v's owner set in the current build, valid only
	// when stamp[v] == epoch — no per-build reset pass.
	set   []int32
	stamp []int32
	epoch int32

	sets   []ownerSet // the current build's owner sets; sets[0] is empty
	owners []int32    // owner lists of the sets listed so far
	mark   []int32    // mark[o] = last group that linked to group o
}

// ownerSet is one interned set of owner groups. Groups are added in
// ascending index order, so the sets form a trie: set s holds set up's
// groups plus last, the largest.
type ownerSet struct {
	up, last int32
	// child is the set that adding group childOf leads to, created the
	// first time a member of this set joins group childOf.
	child, childOf int32
	// met is the last group whose scan linked every owner of this set.
	met int32
	// The set's groups, ascending, are owners[off:off+n] once a scan has
	// met the set (n > 0: every set but the empty one has an owner).
	off, n int32
}

// NewQuotientBuilder prepares a builder over parent. The O(n) owner-array
// allocation happens here, once.
func NewQuotientBuilder(parent *graph.G) *QuotientBuilder {
	n := parent.N()
	return &QuotientBuilder{
		parent: parent,
		set:    make([]int32, n),
		stamp:  make([]int32, n),
	}
}

// Build constructs the quotient network of the builder's parent under
// groups — identical output to QuotientNetwork(parent, groups, seed).
func (b *QuotientBuilder) Build(groups [][]int, seed int64) *Network {
	parent := b.parent
	q := len(groups)
	n := parent.N()
	b.epoch++
	if b.epoch == 0 { // wrapped: stale stamps could collide, re-zero once
		clear(b.stamp)
		b.epoch = 1
	}
	epoch := b.epoch

	// Owner sets: adding group gi moves a node from set s to s's child
	// for gi, created once per (s, gi). A member listed twice is already
	// in a set whose last group is gi.
	set, stamp := b.set, b.stamp
	sets := append(b.sets[:0], ownerSet{last: -1, childOf: -1, met: -1})
	for gi, grp := range groups {
		g32 := int32(gi)
		for _, v := range grp {
			if v < 0 || v >= n {
				panic(fmt.Sprintf("local: QuotientNetwork: group %d contains node %d outside [0,%d)", gi, v, n))
			}
			s := int32(0)
			if stamp[v] == epoch {
				s = set[v]
			} else {
				stamp[v] = epoch
			}
			if sets[s].last == g32 {
				continue
			}
			if sets[s].childOf != g32 {
				sets[s].child, sets[s].childOf = int32(len(sets)), g32
				sets = append(sets, ownerSet{up: s, last: g32, childOf: -1, met: -1})
			}
			set[v] = sets[s].child
		}
	}
	b.sets, b.owners = sets, b.owners[:0]

	adj := make([][]int, q)
	b.mark = slices.Grow(b.mark[:0], q)[:q]
	for i := range b.mark {
		b.mark[i] = -1
	}
	// Group gi lists its neighbors in the order its scan first meets them:
	// the owners of each member, then of each of its parent-neighbors. A
	// group linked to all others can meet no new one, so its scan ends
	// there — in a dense quotient, after a fraction of its members.
	for gi, grp := range groups {
		g32 := int32(gi)
		for _, v := range grp {
			// Groups sharing v are adjacent; so are the owner groups of
			// every parent-neighbor of v. Most sets are met already.
			if s := set[v]; sets[s].met != g32 {
				adj[gi] = b.linkSet(adj[gi], g32, s)
			}
			for _, u := range parent.Neighbors(v) {
				if stamp[u] != epoch {
					continue
				}
				if s := set[u]; sets[s].met != g32 {
					adj[gi] = b.linkSet(adj[gi], g32, s)
				}
			}
			if len(adj[gi]) == q-1 {
				break
			}
		}
	}

	qg, err := graph.FromAdjacency(adj)
	if err != nil {
		panic(fmt.Sprintf("local: QuotientNetwork: %v", err))
	}
	return NewNetwork(qg, seed)
}

// linkSet appends to out every owner of set s that group gi has not linked
// yet, in ascending group order, and marks s met by gi: a set met again
// adds no new link.
func (b *QuotientBuilder) linkSet(out []int, gi int32, s int32) []int {
	b.sets[s].met = gi
	if b.sets[s].up == 0 { // one owner, the common case: no list needed
		return b.link(out, gi, b.sets[s].last)
	}
	for _, o := range b.ownersOf(s) {
		out = b.link(out, gi, o)
	}
	return out
}

// link appends group o to gi's neighbors unless it is gi or linked already.
func (b *QuotientBuilder) link(out []int, gi, o int32) []int {
	if o != gi && b.mark[o] != gi {
		b.mark[o] = gi
		out = append(out, int(o))
	}
	return out
}

// ownersOf returns set s's groups in ascending order, listing them from
// the trie the first time a scan meets s. Only sets some node ends in are
// ever listed, and their lists together are at most the groups' total
// size, the same int32 bound the set IDs live under.
func (b *QuotientBuilder) ownersOf(s int32) []int32 {
	set := &b.sets[s]
	if set.n == 0 {
		off := len(b.owners)
		for x := s; x != 0; x = b.sets[x].up {
			b.owners = append(b.owners, b.sets[x].last)
		}
		slices.Reverse(b.owners[off:])
		set.off, set.n = int32(off), int32(len(b.owners)-off)
	}
	return b.owners[set.off : set.off+set.n]
}
