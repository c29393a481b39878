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
//	(1) a short cycle through v whose node set already induces a DCC
//	    (even chordless cycle, or any cycle with chords that is not a
//	    clique);
//	(2) a short cycle through v plus one "ear" node attached twice
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
	// maxCycles caps how many short cycles through v are tried, shortest
	// first, before the search falls back to the block search.
	maxCycles = 8
	// blockBallMax is the largest radius-2r ball the exact block search
	// runs on.
	blockBallMax = 48
)

// Finder runs FindDCC's search around many nodes of one graph. Its
// scratch — BFS distances, parents and branches, the candidate-set index
// and the ear counts — is flat, allocated once at NewFinder and cleared by
// bumping an epoch, so a call costs only the nodes its search visits.
//
// A Finder belongs to one goroutine and to the graph it was built for:
// adding or removing nodes or edges of that graph invalidates it.
type Finder struct {
	g *graph.G

	// BFS from the current center: dist is live for discovered nodes, and
	// parent/branch (the center's child the node descends from) are valid
	// exactly for them. order is the discovery order; order[lo:] is the
	// deepest complete level, at distance depth from the center.
	dist      stamped
	parent    []int32
	branch    []int32
	order     []int32
	lo, depth int

	pos            stamped // position of each node in the candidate set
	ear            stamped // per-node count of candidate-set neighbors
	cyc, ext, ears []int   // candidate cycle, cycle plus ear, ear order
	sub            induced // the candidate set's induced adjacency
}

// NewFinder returns a Finder over g.
func NewFinder(g *graph.G) *Finder {
	n := g.N()
	return &Finder{
		g:      g,
		dist:   newStamped(n),
		parent: make([]int32, n),
		branch: make([]int32, n),
		pos:    newStamped(n),
		ear:    newStamped(n),
	}
}

// Find is FindDCC(g, v, r) on the Finder's graph.
func (f *Finder) Find(v, r int) []int {
	if r < 1 {
		return nil
	}
	f.dist.reset()
	f.dist.put(v, 0)
	f.parent[v], f.branch[v] = -1, -1
	f.order = append(f.order[:0], int32(v))
	f.lo, f.depth = 0, 0
	// (1)+(2): cycle-based search inside the radius-r ball.
	if got := f.cycleDCC(r); got != nil {
		return got
	}
	// (3): exact block search on small balls only. The BFS resumes where
	// the cycle search left it, which may already be past the cap, and
	// stops growing at the first node past it.
	for len(f.order) <= blockBallMax && f.depth < 2*r {
		if !f.grow(blockBallMax + 1) {
			break
		}
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

// grow discovers the BFS level below order[lo:], stopping early once
// order holds limit nodes (limit < 0: no cap). It reports whether the new
// level is nonempty.
func (f *Finder) grow(limit int) bool {
	hi := len(f.order)
	for _, u := range f.order[f.lo:hi] {
		d, _ := f.dist.get(int(u))
		for _, w := range f.g.Neighbors(int(u)) {
			if _, seen := f.dist.get(w); seen {
				continue
			}
			f.dist.put(w, d+1)
			f.parent[w], f.branch[w] = u, f.branch[u]
			if d == 0 {
				f.branch[w] = int32(w)
			}
			f.order = append(f.order, int32(w))
			if len(f.order) == limit {
				return true
			}
		}
	}
	f.lo = hi
	f.depth++
	return len(f.order) > hi
}

// cycleDCC tries the shortest cycles through the center, at most
// maxCycles of them, and upgrades them to DCCs.
//
// A non-tree edge {x, y} between different BFS branches closes a cycle
// through the center of length dist(x)+dist(y)+1. Adjacent nodes differ
// in depth by at most one, so once level k is complete every closer of
// length <= 2k+1 is known and every other one is longer: the search grows
// one level at a time and, after level k, tries that level's closers of
// length 2k, then 2k+1. Within a length, closers come in BFS order of
// their smaller-ID endpoint x, then in x's adjacency order — the order a
// stable length sort of all closers in the radius-r ball would give.
func (f *Finder) cycleDCC(r int) []int {
	tried := 0
	for k := 1; k <= r; k++ {
		prev := f.lo // start of level k-1
		if !f.grow(-1) {
			return nil
		}
		for length := 2 * k; length <= 2*k+1; length++ {
			from := prev // a 2k-closer joins levels k-1 and k
			if length == 2*k+1 {
				from = f.lo // a (2k+1)-closer lies within level k
			}
			for _, x := range f.order[from:] {
				for _, y := range f.g.Neighbors(int(x)) {
					if !f.closes(int(x), y, length) {
						continue
					}
					if got := f.tryCycle(int(x), y, r); got != nil {
						return got
					}
					if tried++; tried == maxCycles {
						return nil
					}
				}
			}
		}
	}
	return nil
}

// closes reports whether the edge {x, y}, seen from its smaller endpoint
// x, closes a cycle of the given length through the center.
func (f *Finder) closes(x, y, length int) bool {
	if x >= y {
		return false
	}
	dy, ok := f.dist.get(y)
	if !ok || f.parent[y] == int32(x) || f.parent[x] == int32(y) || f.branch[x] == f.branch[y] {
		return false // outside the ball, a tree edge, or a cycle that may avoid the center
	}
	dx, _ := f.dist.get(x)
	return int(dx+dy)+1 == length
}

// tryCycle upgrades the cycle closed by {x, y} to a DCC: its node set, or
// failing that the node set plus an ear node adjacent to two of its nodes.
func (f *Finder) tryCycle(x, y, r int) []int {
	cyc := f.cyc[:0]
	for u := int32(x); u != -1; u = f.parent[u] {
		cyc = append(cyc, int(u))
	}
	for u := int32(y); f.parent[u] != -1; u = f.parent[u] { // the center is already in
		cyc = append(cyc, int(u))
	}
	slices.Sort(cyc)
	f.cyc = cyc
	// No radius check: the center reaches every cycle node along the
	// cycle within max(dist(x), dist(y)) <= r hops.
	f.load(cyc)
	if f.sub.isDCC() {
		return slices.Clone(cyc)
	}
	// The cycle induces a clique (triangle) or a chordless odd cycle: try
	// attaching an ear, in order of first appearance. f.pos still indexes
	// the cycle here.
	f.ear.reset()
	ears := f.ears[:0]
	for _, u := range cyc {
		for _, w := range f.g.Neighbors(u) {
			if _, in := f.pos.get(w); in {
				continue
			}
			c, seen := f.ear.get(w)
			if !seen {
				ears = append(ears, w)
			}
			f.ear.put(w, c+1)
		}
	}
	f.ears = ears
	f.ext = append(f.ext[:0], cyc...)
	for _, w := range ears {
		if c, _ := f.ear.get(w); c < 2 {
			continue
		}
		f.ext = append(f.ext[:len(cyc)], w)
		f.load(f.ext)
		if f.sub.radius() <= r && f.sub.isDCC() { // radius -1 (disconnected) fails isDCC
			return slices.Clone(f.ext)
		}
	}
	return nil
}

// load indexes nodes (distinct by construction) as the candidate set and
// builds its induced adjacency in f.sub.
func (f *Finder) load(nodes []int) {
	f.pos.reset()
	for i, u := range nodes {
		f.pos.put(u, int32(i))
	}
	f.sub.build(f.g, nodes, func(u int) int {
		if i, ok := f.pos.get(u); ok {
			return int(i)
		}
		return -1
	})
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
// DCC's index (-1 when none found).
//
// rounds reports the LOCAL cost charged: collecting the radius-2r ball
// costs 2r rounds (see local.GatherStepped).
func SelectDCCs(g *graph.G, r int) (dccs [][]int, owner []int, rounds int) {
	owner = make([]int, g.N())
	for v := range owner {
		owner[v] = -1
	}
	f := NewFinder(g)
	seen := map[string]int{}
	for v := 0; v < g.N(); v++ {
		d := f.Find(v, r)
		if d == nil {
			continue
		}
		key := dccKey(d)
		if idx, ok := seen[key]; ok {
			owner[v] = idx
			continue
		}
		seen[key] = len(dccs)
		owner[v] = len(dccs)
		dccs = append(dccs, d)
	}
	return dccs, owner, 2 * r
}

// dccKey is a map key identifying a DCC's node set: the sorted IDs as
// concatenated uvarints, which are self-delimiting, so distinct sets of
// non-negative IDs never share a key.
func dccKey(nodes []int) string {
	sorted := slices.Clone(nodes)
	slices.Sort(sorted)
	b := make([]byte, 0, len(sorted)*binary.MaxVarintLen32)
	for _, x := range sorted {
		b = binary.AppendUvarint(b, uint64(x))
	}
	return string(b)
}
