package gallai

import (
	"encoding/binary"
	"slices"

	"deltacolor/graph"
)

// FindDCC searches for a degree-choosable component of radius at most r
// containing v. Detection is sound: a non-nil result always induces a
// 2-connected subgraph that is neither a clique nor an induced odd cycle,
// with radius <= r.
//
// The search is built around the canonical small DCCs:
//
//	(1) a short cycle through v whose node set already induces a DCC:
//	    every even cycle of length >= 4 closed by a BFS non-tree edge,
//	    and any odd one with a chord that is not a clique;
//	(2) a short odd cycle through v plus one "ear" node attached twice
//	    (theta-like subgraphs such as K4 minus an edge);
//	(3) for small balls, the block of v (exact but more expensive).
//
// It can miss deeply-buried DCCs; the Δ-coloring pipeline tolerates
// incompleteness (missed DCCs shift work to the shattering phases and the
// repair safety net, never breaking correctness; README "Departures from
// the paper").
//
// FindDCC allocates scratch sized to g on every call; loops over many
// nodes of one graph should hold a Finder instead.
func FindDCC(g *graph.G, v, r int) []int {
	return NewFinder(g).Find(v, r)
}

const (
	// maxCycles caps how many odd short cycles through v are tried,
	// shortest first, before the search falls back to the block search.
	// Even cycles never fail, so they do not count.
	maxCycles = 8
	// blockBallMax is the largest radius-2r ball the exact block search
	// runs on.
	blockBallMax = 48
)

// Finder runs FindDCC's search around many nodes of one graph. Its
// scratch — one packed BFS record per node and the ear counts — is flat,
// allocated once at NewFinder and cleared by bumping an epoch, so a call
// costs only the nodes its search visits.
//
// A Finder belongs to one goroutine and to the graph it was built for:
// adding or removing nodes or edges of that graph invalidates it.
type Finder struct {
	g *graph.G

	// BFS from the current center: mark[u] is live when its stamp equals
	// epoch. order is the discovery order; order[lo:] is the deepest
	// complete level, at distance depth from the center.
	mark      []bfsMark
	epoch     uint32
	order     []int32
	lo, depth int

	odd            []closer // the last read level's (2k+1)-closers, in try order
	ear            stamped  // candidate cycle nodes (-1), other nodes' cycle-neighbor counts
	cyc, ext, ears []int    // candidate cycle, cycle plus ear, ear order
}

// bfsMark is one node's BFS entry, packed so that a visit touches one
// record: its index in order (which the level bounds turn into its
// depth), its BFS parent, and its branch (the center's child it descends
// from; -1 at the center).
type bfsMark struct {
	stamp               uint32
	pos, parent, branch int32
}

// closer is a non-tree edge {x, y}, x < y, between two BFS branches.
type closer struct{ x, y int32 }

// NewFinder returns a Finder over g.
func NewFinder(g *graph.G) *Finder {
	n := g.N()
	return &Finder{
		g:    g,
		mark: make([]bfsMark, n),
		ear:  newStamped(n),
	}
}

// Find is FindDCC(g, v, r) on the Finder's graph.
func (f *Finder) Find(v, r int) []int {
	return slices.Clone(f.find(v, r))
}

// find is Find without the copy: a result built in the Finder's scratch
// is valid only until the next call.
func (f *Finder) find(v, r int) []int {
	if r < 1 {
		return nil
	}
	f.start(v)
	// (1)+(2): cycle-based search inside the radius-r ball.
	if got := f.cycleDCC(r); got != nil {
		return got
	}
	// (3): exact block search on small balls only. The BFS resumes from
	// the complete level the cycle search stopped at, which may already
	// be past the cap, and stops growing at the first node past it.
	for len(f.order) <= blockBallMax && f.depth < 2*r && f.lo < len(f.order) {
		f.grow(blockBallMax+1, false)
	}
	if len(f.order) > blockBallMax {
		return nil
	}
	ball := make([]int, len(f.order))
	for i, u := range f.order {
		ball[i] = int(u)
	}
	return blockDCC(f.g, ball, r)
}

// start resets the BFS to the single node v.
func (f *Finder) start(v int) {
	f.epoch++
	if f.epoch == 0 { // wrapped: stale stamps could collide, re-zero once
		clear(f.mark)
		f.epoch = 1
	}
	f.mark[v] = bfsMark{stamp: f.epoch, parent: -1, branch: -1}
	f.order = append(f.order[:0], int32(v))
	f.lo, f.depth = 0, 0
}

// grow discovers level k+1 from the complete, nonempty level k =
// order[lo:], in FIFO BFS order. It stops early once order holds limit
// nodes (limit < 0: no cap), leaving lo and depth at level k. With
// closers set (k >= 1), the same read of level k also finds the closers
// it meets: it lists the (2k+1)-closers inside level k in f.odd, in try
// order, and returns the first 2(k+1)-closer in try order (x = -1: none).
func (f *Finder) grow(limit int, closers bool) closer {
	mark, epoch, order := f.mark, f.epoch, f.order
	lo, hi := int32(f.lo), int32(len(order))
	first := f.depth == 0
	odd := f.odd[:0]
	// A 2(k+1)-closer joins u on level k to a w on level k+1 that an
	// earlier node of level k discovered. With w > u it is eager: x = u,
	// and the first one met is the first in try order. With w < u, x = w
	// lies on level k+1, behind every eager one; late keeps one with the
	// earliest such x.
	eager, late := closer{-1, -1}, closer{-1, -1}
	next := f.g.Neighbors(int(order[lo]))
	for i := lo; i < hi; i++ {
		u, nbrs := order[i], next
		if i+1 < hi {
			// Load the next node's adjacency before scanning this one's,
			// so that the two cache misses overlap.
			next = f.g.Neighbors(int(order[i+1]))
		}
		br := mark[u].branch
		for _, w := range nbrs {
			m := &mark[w]
			if m.stamp != epoch {
				b := br
				if first {
					b = int32(w)
				}
				*m = bfsMark{stamp: epoch, pos: int32(len(order)), parent: u, branch: b}
				order = append(order, int32(w))
				if len(order) == limit {
					f.order = order
					return closer{-1, -1}
				}
				continue
			}
			if !closers || m.branch == br || m.pos < lo {
				// A tree edge or a cycle that may avoid the center (one
				// branch), or a 2k-closer, met when level k grew.
				continue
			}
			switch {
			case m.pos < hi:
				if int32(w) > u {
					odd = append(odd, closer{u, int32(w)})
				}
			case eager.x >= 0:
			case int32(w) > u:
				eager = closer{u, int32(w)}
			case late.x < 0 || m.pos < mark[late.x].pos:
				late = closer{int32(w), u}
			}
		}
	}
	f.order, f.odd = order, odd
	f.lo = int(hi)
	f.depth++
	if eager.x >= 0 || late.x < 0 {
		return eager
	}
	// late.x's closers come in its adjacency order, and late.y is one.
	bx := mark[late.x].branch
	for _, y := range f.g.Neighbors(int(late.x)) {
		if m := mark[y]; m.stamp == epoch && lo <= m.pos && m.pos < hi && int32(y) > late.x && m.branch != bx {
			late.y = int32(y)
			break
		}
	}
	return late
}

// cycleDCC tries the shortest cycles through the center and upgrades
// them to DCCs.
//
// A closer, a non-tree edge {x, y} (x < y) between different BFS
// branches, closes a cycle through the center of length
// dist(x)+dist(y)+1. Adjacent nodes differ in depth by at most one, so
// the read of level k that grows level k+1 meets every closer of length
// 2k+1 and 2k+2, and every closer it has not met is longer: each level's
// adjacency is read once. The try order is a stable length sort of all
// closers in the radius-r ball: by length, then in BFS order of x, then
// in x's adjacency order.
//
// A 2k-closer with k >= 2 always yields a DCC: its 2k nodes carry a
// spanning cycle, so they are 2-connected; their count is even, so they
// are no odd cycle; and the deepest lies k >= 2 hops from the center, so
// they are no clique. So the first even closer is the answer, without a
// set test. Only odd closers go through tryCycle and count toward
// maxCycles. When the cap is met, level k+1 is already complete; the
// block search resumes from there, with the result it would get from
// level k, whose next step grows level k+1 under the same node cap.
func (f *Finder) cycleDCC(r int) []int {
	f.grow(-1, false) // level 1: every edge at the center is a tree edge
	tried := 0
	for k := 1; k <= r && f.lo < len(f.order); k++ {
		even := f.grow(-1, true)
		for _, c := range f.odd {
			if got := f.tryCycle(c); got != nil {
				return got
			}
			if tried++; tried == maxCycles {
				return nil
			}
		}
		if even.x >= 0 && k < r {
			return f.cycle(even.x, even.y)
		}
	}
	return nil
}

// cycle returns the node set, sorted, of the cycle the closer {x, y}
// closes through the center, in f.cyc.
func (f *Finder) cycle(x, y int32) []int {
	cyc := f.cyc[:0]
	for u := x; u != -1; u = f.mark[u].parent {
		cyc = append(cyc, int(u))
	}
	for u := y; f.mark[u].parent != -1; u = f.mark[u].parent { // the center is already in
		cyc = append(cyc, int(u))
	}
	slices.Sort(cyc)
	f.cyc = cyc
	return cyc
}

// tryCycle upgrades the odd cycle closed by e to a DCC: its node set, or
// failing that the node set plus an ear node adjacent to two of its
// nodes, the first such ear in order of first appearance.
//
// Neither set needs a graph test. Both are 2-connected (a cycle, and a
// cycle plus an ear), so clique and odd cycle are counts (isDCC2). Both
// have radius <= k <= r: on a cycle of 2k+1 nodes every node reaches
// the others within k hops, and so does a cycle node next to the ear.
func (f *Finder) tryCycle(e closer) []int {
	cyc := f.cycle(e.x, e.y)
	// f.ear marks the cycle's nodes with -1. One read of their adjacency
	// counts the induced edges and, for every other neighbor, its
	// neighbors on the cycle.
	f.ear.reset()
	for _, u := range cyc {
		f.ear.put(u, -1)
	}
	ears := f.ears[:0]
	deg := 0 // twice the induced edge count
	for _, u := range cyc {
		for _, w := range f.g.Neighbors(u) {
			switch c, seen := f.ear.get(w); {
			case !seen:
				ears = append(ears, w)
				f.ear.put(w, 1)
			case c < 0:
				deg++
			default:
				f.ear.put(w, c+1)
			}
		}
	}
	f.ears = ears
	n, m := len(cyc), deg/2
	if isDCC2(n, m) {
		return cyc
	}
	for _, w := range ears {
		if c, _ := f.ear.get(w); c >= 2 && isDCC2(n+1, m+int(c)) {
			f.ext = append(append(f.ext[:0], cyc...), w)
			return f.ext
		}
	}
	return nil
}

// isDCC2 reports whether a 2-connected set of n nodes with m induced
// edges is a DCC. A 2-connected graph has minimum degree 2, so it is an
// odd cycle exactly when n is odd and m == n.
func isDCC2(n, m int) bool {
	return n >= 4 && m != n*(n-1)/2 && (n%2 == 0 || m != n)
}

// stamped is an int32 table over node IDs whose entries all clear in
// O(1): an entry is live only while its stamp equals the current epoch.
type stamped struct {
	epoch uint32
	stamp []uint32
	val   []int32
}

func newStamped(n int) stamped {
	return stamped{stamp: make([]uint32, n), val: make([]int32, n)}
}

func (s *stamped) reset() {
	s.epoch++
	if s.epoch == 0 { // wrapped: stale stamps could collide, re-zero once
		clear(s.stamp)
		s.epoch = 1
	}
}

func (s *stamped) get(u int) (int32, bool) {
	if s.stamp[u] != s.epoch {
		return 0, false
	}
	return s.val[u], true
}

func (s *stamped) put(u int, x int32) {
	s.stamp[u], s.val[u] = s.epoch, x
}

// blockDCC is the exact search used on small balls: the block containing
// the center ball[0] in the induced ball subgraph, greedily shrunk to
// radius r.
func blockDCC(g *graph.G, ball []int, r int) []int {
	sub, orig, err := g.InducedSubgraph(ball)
	if err != nil {
		return nil
	}
	const center = 0 // BFS order puts v first
	blocks, _ := sub.BiconnectedComponents()
	for _, b := range blocks {
		if !slices.Contains(b.Nodes, center) || BlockIsCliqueOrOddCycle(sub, b) {
			continue
		}
		if got := shrinkDCC(sub, b.Nodes, center, r); got != nil {
			out := make([]int, len(got))
			for i, u := range got {
				out[i] = orig[u]
			}
			return out
		}
	}
	return nil
}

// shrinkDCC greedily peels nodes farthest from the center while keeping
// the DCC property, aiming for radius <= r. Returns nil on failure.
func shrinkDCC(sub *graph.G, nodes []int, center, r int) []int {
	cur := append([]int(nil), nodes...)
	if !IsDCCSet(sub, cur) {
		return nil
	}
	for {
		if rad := SetRadius(sub, cur); rad >= 0 && rad <= r {
			return cur
		}
		// Distances from the center inside cur: s.dist[i] for cur[i], -1
		// when unreachable.
		var s induced
		s.buildSet(sub, cur)
		s.bfs(slices.Index(cur, center), -1)
		best, bestDist := -1, -1
		for i, cand := range cur {
			if cand == center {
				continue
			}
			if d := int(s.dist[i]); d > bestDist {
				if next := withoutNode(cur, cand); IsDCCSet(sub, next) {
					best, bestDist = cand, d
				}
			}
		}
		if best < 0 {
			return nil
		}
		cur = withoutNode(cur, best)
	}
}

func withoutNode(nodes []int, v int) []int {
	out := make([]int, 0, len(nodes)-1)
	for _, u := range nodes {
		if u != v {
			out = append(out, u)
		}
	}
	return out
}

// SelectDCCs runs phase (1) of the randomized algorithm: every node that is
// contained in a DCC of radius <= r selects one; the returned slice holds
// the distinct selected DCCs, and owner maps each selecting node to its
// DCC's index (-1 when none found). A DCC is copied out of the search's
// scratch only the first time it is selected.
//
// rounds reports the LOCAL cost charged: collecting the radius-2r ball
// costs 2r rounds (see local.GatherStepped).
func SelectDCCs(g *graph.G, r int) (dccs [][]int, owner []int, rounds int) {
	owner = make([]int, g.N())
	f := NewFinder(g)
	seen := map[string]int{}
	var sorted []int
	var key []byte
	for v := range owner {
		owner[v] = -1
		d := f.find(v, r)
		if d == nil {
			continue
		}
		sorted = append(sorted[:0], d...)
		slices.Sort(sorted)
		key = appendDCCKey(key[:0], sorted)
		idx, ok := seen[string(key)]
		if !ok {
			idx = len(dccs)
			seen[string(key)] = idx
			dccs = append(dccs, slices.Clone(d))
		}
		owner[v] = idx
	}
	return dccs, owner, 2 * r
}

// dccKey is a map key identifying a DCC's node set: the sorted IDs as
// concatenated uvarints, which are self-delimiting, so distinct sets of
// non-negative IDs never share a key.
func dccKey(nodes []int) string {
	sorted := slices.Clone(nodes)
	slices.Sort(sorted)
	return string(appendDCCKey(nil, sorted))
}

// appendDCCKey appends dccKey's bytes for the sorted node set to b.
func appendDCCKey(b []byte, sorted []int) []byte {
	for _, x := range sorted {
		b = binary.AppendUvarint(b, uint64(x))
	}
	return b
}
