package core

import (
	"sort"

	"deltacolor/graph"
)

// DetRulingSet computes a (k, (k-1)·ceil(log2 n)) ruling set of G[active]
// deterministically with the classic Awerbuch–Goldberg–Luby–Plotkin bit
// recursion: split candidates on the highest ID bit, recursively compute
// ruling sets of both halves in parallel, keep the 0-side and add 1-side
// members at distance >= k from it. One recursion level costs k-1 rounds
// (a distance-(k-1) probe), so the whole computation costs
// (k-1)·ceil(log2 n) rounds.
//
// This substitutes for the SEW13-based deterministic ruling sets of
// Lemma 20 (1)/(2); the (α, β) contract the layering technique needs is
// identical, with β = (k-1)·log n instead of k²·β' (see README
// "Departures from the paper").
type DetRulingSet struct {
	InSet  []bool
	Beta   int
	Rounds int
}

// DetRulingSetCompute runs the recursion over the given candidate IDs
// (distances are measured in g, matching the layering semantics).
func DetRulingSetCompute(g *graph.G, active []bool, k int) *DetRulingSet {
	n := g.N()
	bits := 0
	for 1<<bits < n {
		bits++
	}
	a := newAGLP(g, k)
	candidates := make([]int32, 0, n)
	for v := 0; v < n; v++ {
		if active == nil || active[v] {
			candidates = append(candidates, int32(v))
		}
	}
	in := make([]bool, n)
	for _, v := range a.rec(candidates, bits-1) {
		in[v] = true
	}
	beta := (k - 1) * bits
	if beta < 1 {
		beta = 1
	}
	return &DetRulingSet{
		InSet:  in,
		Beta:   beta,
		Rounds: (k - 1) * bits,
	}
}

// aglp simulates the recursion centrally. Each merge must keep exactly
// the 1-side members at distance >= k from the 0-side; two facts,
// computed once per call, settle most of them without a search:
//
//   - a member whose component holds no 0-side member is kept;
//   - a component whose diameter is at most k-1 keeps none of its members
//     once it holds a 0-side member. One BFS from each component's first
//     node bounds the diameter by 2·ecc(root).
//
// The rest are settled by a multi-source BFS from the 0-side, bounded at
// depth k-1, that stops once every one of them is reached. Its scratch is
// flat and cleared by bumping an epoch, so a merge allocates nothing.
type aglp struct {
	g *graph.G
	k int

	comp  []int32 // component of each node
	small []bool  // per component: diameter <= k-1

	// At the current merge's epoch e, a component's seeded entry is e when
	// it holds a 0-side member and e+1 when it also holds a pending 1-side
	// member; a node's mark is e while it is pending and e+1 once it is
	// known to lie within k-1 of the 0-side. There are at most n-1
	// merges, two epochs each, so the counters cannot wrap.
	seeded []uint32
	mark   []uint32
	epoch  uint32
	queue  []int32
}

func newAGLP(g *graph.G, k int) *aglp {
	n := g.N()
	a := &aglp{
		g:     g,
		k:     k,
		comp:  make([]int32, n),
		mark:  make([]uint32, n),
		queue: make([]int32, 0, n),
	}
	for v := range a.comp {
		a.comp[v] = -1
	}
	for root := 0; root < n; root++ {
		if a.comp[root] >= 0 {
			continue
		}
		c := int32(len(a.small))
		a.comp[root] = c
		q := append(a.queue[:0], int32(root))
		ecc := -1
		for lo := 0; lo < len(q); ecc++ {
			hi := len(q)
			for _, v := range q[lo:hi] {
				for _, w := range g.Neighbors(int(v)) {
					if a.comp[w] < 0 {
						a.comp[w] = c
						q = append(q, int32(w))
					}
				}
			}
			lo = hi
		}
		a.small = append(a.small, 2*ecc <= k-1)
	}
	a.seeded = make([]uint32, len(a.small))
	return a
}

// rec returns the ruling set of the ascending candidates c, which agree on
// every bit above bit, compacted into a prefix of c.
func (a *aglp) rec(c []int32, bit int) []int32 {
	if len(c) <= 1 || bit < 0 {
		// IDs are unique, so at bit < 0 a single candidate remains per
		// recursion path.
		return c[:min(len(c), 1)]
	}
	mid := sort.Search(len(c), func(i int) bool { return c[i]>>bit&1 == 1 })
	s0 := a.rec(c[:mid], bit-1)
	s1 := a.rec(c[mid:], bit-1)
	if len(s0) == 0 {
		return c[:copy(c, s1)]
	}
	a.settle(s0, s1)
	// s1 sits at c[mid:], at or after every slot written here.
	out := len(s0)
	for _, v := range s1 {
		if a.mark[v] != a.epoch+1 {
			c[out] = v
			out++
		}
	}
	return c[:out]
}

// settle marks (mark == epoch+1) every member of s1 within distance k-1
// of s0 in g.
func (a *aglp) settle(s0, s1 []int32) {
	a.epoch += 2
	e, near := a.epoch, a.epoch+1
	for _, s := range s0 {
		a.seeded[a.comp[s]] = e
	}
	pending := 0
	for _, v := range s1 {
		c := a.comp[v]
		switch {
		case a.seeded[c] < e: // no 0-side member in v's component: kept
		case a.small[c]:
			a.mark[v] = near
		default:
			a.mark[v] = e
			a.seeded[c] = near
			pending++
		}
	}
	if pending == 0 {
		return
	}
	q := a.queue[:0]
	for _, s := range s0 {
		if a.seeded[a.comp[s]] == near {
			a.mark[s] = near
			q = append(q, s)
		}
	}
	for depth, lo := 1, 0; depth < a.k && lo < len(q); depth++ {
		hi := len(q)
		for _, v := range q[lo:hi] {
			for _, w := range a.g.Neighbors(int(v)) {
				m := a.mark[w]
				if m == near {
					continue
				}
				a.mark[w] = near
				if m == e {
					if pending--; pending == 0 {
						return
					}
				}
				q = append(q, int32(w))
			}
		}
		lo = hi
	}
}
