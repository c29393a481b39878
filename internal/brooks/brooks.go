// Package brooks implements the distributed Brooks' theorem (Theorem 5,
// originally [PS95], re-proved in Section 2.3 of the paper): when a graph
// with Δ >= 3 that is not a clique is Δ-colored except for a single node v,
// the coloring can be completed by recoloring only inside the
// (2·log_{Δ-1} n)-neighborhood of v.
//
// The procedure follows the paper's proof: v holds a "token"; while the
// token node has no free color, the token moves to a neighbor u by coloring
// the current node with c(u) and uncoloring u (always proper, because a
// node without a free color sees all Δ colors on its neighbors). The token
// is walked towards either a node of degree < Δ (which always has a free
// color) or a degree-choosable component, which is then wholly uncolored
// and exactly re-colored from its degree lists (possible by Theorem 8).
// Lemma 16 guarantees one of the two targets exists within the stated
// radius.
package brooks

import (
	"fmt"
	"math"
	"slices"

	"deltacolor/graph"
	"deltacolor/internal/gallai"
)

// Mode records which escape hatch completed the coloring.
type Mode int

const (
	// ModeFree: the uncolored node already had a free color.
	ModeFree Mode = iota + 1
	// ModeLowDegree: the token walked to a node of degree < Δ.
	ModeLowDegree
	// ModeDCC: the token walked to a degree-choosable component, which was
	// uncolored and brute-force re-colored.
	ModeDCC
	// ModeFallback: the heuristic DCC search failed and an expanding-ball
	// exact re-coloring was used instead (possible only because FindDCC is
	// heuristically incomplete; see README "Departures from the paper").
	ModeFallback
)

func (m Mode) String() string {
	switch m {
	case ModeFree:
		return "free"
	case ModeLowDegree:
		return "low-degree"
	case ModeDCC:
		return "dcc"
	case ModeFallback:
		return "fallback"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Result reports a completed recoloring.
type Result struct {
	Colors []int
	Radius int // max distance from the start node that was touched
	Rounds int // LOCAL rounds charged (ball collection + token walk + local recoloring)
	Mode   Mode
}

// SearchRadius returns the paper's bound 2·log_{Δ-1} n (ceiling), the
// radius within which Lemma 16 guarantees a low-degree node or a DCC.
func SearchRadius(n, delta int) int {
	if delta < 3 || n < 2 {
		return 1
	}
	r := int(math.Ceil(2 * math.Log(float64(n)) / math.Log(float64(delta-1))))
	if r < 1 {
		r = 1
	}
	return r
}

// FixOne completes node v of a proper partial Δ-coloring (partial[v] must
// be < 0, colored nodes carry values in [0, delta)). It returns new colors;
// the input slice is not modified.
//
// Multi-hole semantics: the coloring does NOT have to be total away from v.
// Other uncolored nodes — the composite algorithms' deferral paths and the
// SLOCAL executor both call FixOne mid-run with many holes open, some of
// them adjacent — are treated as slack everywhere a color constraint is
// read: FreeColor ignores uncolored neighbors, and the DCC and fallback
// recolorings build their lists (gallai.DegreeLists) from
// colored boundary nodes only, so an uncolored boundary neighbor widens a
// list instead of blocking a color. Two consequences, pinned by the
// adjacent-hole regression tests:
//
//   - the token walk never steps into another hole: a token node adjacent
//     to an uncolored neighbor sees at most Δ-1 colors and therefore exits
//     early with a free color before the step is taken (in particular, a
//     hole adjacent to another hole always resolves in ModeFree);
//   - a DCC or fallback recoloring whose region contains other holes
//     completes them as a side effect (their lists are supersets of the
//     degree lists, so Theorem 8 still applies).
//
// Everything FixOne reads lies within distance Radius+1 of v and
// everything it writes within distance Radius (TestFixOneTouchWithinRadius)
// — the locality contract the batched repair engine in batch.go schedules
// against. Unless v has a free color, FixOne runs the engine's fixer once
// on a copy of partial.
func FixOne(g *graph.G, partial []int, v, delta int) (*Result, error) {
	if partial[v] >= 0 {
		return nil, fmt.Errorf("brooks: node %d is already colored", v)
	}
	colors := append([]int(nil), partial...)
	// Fast path: free color at v.
	if c := FreeColor(g, colors, v, delta); c >= 0 {
		colors[v] = c
		return &Result{Colors: colors, Radius: 0, Rounds: 1, Mode: ModeFree}, nil
	}
	res, err := newFixer(g, delta).fix(colors, v)
	if err != nil {
		return nil, err
	}
	res.Colors = colors
	return &res, nil
}

// fixer runs the token procedure for many holes of one graph, so that a
// repair costs the ball it explores rather than O(n). It works on the
// caller's coloring in place and logs every write, so the batched engine
// can read a repair's result off its ball and then undo it; its BFS
// scratch is flat and epoch-stamped, and one gallai.Finder serves every
// DCC search. A fixer belongs to one goroutine and one unchanging graph.
type fixer struct {
	g      *graph.G
	delta  int
	rMax   int            // SearchRadius: how far the target search looks
	lowDeg bool           // some node has degree < delta
	finder *gallai.Finder // built by the first DCC search

	// BFS from the current hole v: seen[u] is live when its stamp equals
	// epoch. order is the discovery order, order[:ends[d]] is B(v, d), and
	// done records that the last level found no new node.
	seen  []bfsMark
	epoch uint32
	order []int
	ends  []int
	done  bool

	log []colorWrite // the current repair's writes, oldest first
}

// bfsMark is one node's BFS entry, packed so a visit touches one record.
type bfsMark struct {
	stamp        uint32
	dist, parent int32
}

// colorWrite records that node's color was old before a write.
type colorWrite struct{ node, old int }

func newFixer(g *graph.G, delta int) *fixer {
	n := g.N()
	return &fixer{
		g:      g,
		delta:  delta,
		rMax:   SearchRadius(n, delta),
		lowDeg: g.MinDegree() < delta,
		seen:   make([]bfsMark, n),
	}
}

// fix completes hole v of colors in place, exactly as the token procedure
// specifies, and returns the repair without Colors. v must have no free
// color: both callers take that fast path themselves, without a fixer.
// Every write stays in f.log until the next fix; undo reverts them.
func (f *fixer) fix(colors []int, v int) (Result, error) {
	f.start(v)
	if target, mode, dcc := f.target(); target >= 0 {
		res, err := f.walkAndResolve(colors, v, target, mode, dcc)
		if err == nil {
			return res, nil
		}
		// fall through to the fallback on unexpected failure
	}
	return f.fallbackRecolor(colors, v)
}

// start resets the BFS to the single node v and clears the write log.
func (f *fixer) start(v int) {
	f.epoch++
	if f.epoch == 0 { // wrapped: stale stamps could collide, re-zero once
		clear(f.seen)
		f.epoch = 1
	}
	f.seen[v] = bfsMark{stamp: f.epoch, dist: 0, parent: -1}
	f.order = append(f.order[:0], v)
	f.ends = append(f.ends[:0], 1)
	f.done = false
	f.log = f.log[:0]
}

// grow discovers the next BFS level, in the order a FIFO BFS visits it,
// and reports whether it holds any node.
func (f *fixer) grow() bool {
	if f.done {
		return false
	}
	d := len(f.ends) - 1
	lo := 0
	if d > 0 {
		lo = f.ends[d-1]
	}
	seen, epoch, order := f.seen, f.epoch, f.order
	for _, u := range order[lo:f.ends[d]] {
		for _, w := range f.g.Neighbors(u) {
			if m := &seen[w]; m.stamp != epoch {
				*m = bfsMark{stamp: epoch, dist: int32(d + 1), parent: int32(u)}
				order = append(order, w)
			}
		}
	}
	f.order = order
	if len(order) == f.ends[d] {
		f.done = true
		return false
	}
	f.ends = append(f.ends, len(f.order))
	return true
}

// ball returns B(v, r) around the current hole, in BFS order.
func (f *fixer) ball(r int) []int {
	for len(f.ends) <= r && f.grow() {
	}
	return f.order[:f.ends[min(r, len(f.ends)-1)]]
}

// within reports whether the BFS has an i-th node within distance rMax of
// the hole, growing it one level at a time only as far as that needs.
func (f *fixer) within(i int) bool {
	for i >= len(f.order) && len(f.ends) <= f.rMax && f.grow() {
	}
	return i < len(f.order) && int(f.seen[f.order[i]].dist) <= f.rMax
}

// target picks the token's destination: the first node, in BFS order
// within rMax, of degree < delta, or failing that the first one contained
// in a DCC (returned as well). The low-degree scan is skipped when no
// node of the graph qualifies.
func (f *fixer) target() (int, Mode, []int) {
	if f.lowDeg {
		for i := 0; f.within(i); i++ {
			if u := f.order[i]; f.g.Deg(u) < f.delta {
				return u, ModeLowDegree, nil
			}
		}
	}
	if f.finder == nil {
		f.finder = gallai.NewFinder(f.g)
	}
	for i := 0; f.within(i); i++ {
		if d := f.finder.Find(f.order[i], f.rMax); d != nil {
			return f.order[i], ModeDCC, d
		}
	}
	return -1, 0, nil
}

// set writes colors[u] = c and logs the old value.
func (f *fixer) set(colors []int, u, c int) {
	f.log = append(f.log, colorWrite{u, colors[u]})
	colors[u] = c
}

// undo reverts the writes logged since position mark, newest first.
func (f *fixer) undo(colors []int, mark int) {
	for i := len(f.log) - 1; i >= mark; i-- {
		colors[f.log[i].node] = f.log[i].old
	}
	f.log = f.log[:mark]
}

// walkAndResolve moves the token from v to target along a BFS shortest
// path, then resolves at the target (free color for low-degree, exact
// recoloring for a DCC).
func (f *fixer) walkAndResolve(colors []int, v, target int, mode Mode, dcc []int) (Result, error) {
	g, delta := f.g, f.delta
	// Reconstruct the path v -> target.
	var path []int
	for x := target; x != -1; x = int(f.seen[x].parent) {
		path = append(path, x)
	}
	slices.Reverse(path) // path was target..v
	radius := 0
	cur := v // token holder, uncolored
	for i := 1; i < len(path); i++ {
		// Early exit: token node gained a free color.
		if c := FreeColor(g, colors, cur, delta); c >= 0 {
			f.set(colors, cur, c)
			return Result{Radius: radius, Rounds: 2*radius + 2, Mode: ModeFree}, nil
		}
		next := path[i]
		f.set(colors, cur, colors[next])
		f.set(colors, next, -1)
		cur = next
		if d := int(f.seen[cur].dist); d > radius {
			radius = d
		}
	}
	switch mode {
	case ModeLowDegree:
		c := FreeColor(g, colors, cur, delta)
		if c < 0 {
			return Result{}, fmt.Errorf("brooks: low-degree target %d has no free color", cur)
		}
		f.set(colors, cur, c)
		return Result{Radius: radius, Rounds: 2*radius + 2, Mode: ModeLowDegree}, nil
	case ModeDCC:
		// Uncolor the whole component (token node may or may not be in it;
		// the proof moves the token to the closest node of the DCC, so cur
		// is a member when dcc came from FindDCC(cur, .)).
		if !containsNode(dcc, cur) {
			dcc = append(dcc, cur)
			if !gallai.IsDCCSet(g, dcc) {
				return Result{}, fmt.Errorf("brooks: token node %d not in its DCC", cur)
			}
		}
		for _, u := range dcc {
			f.set(colors, u, -1)
		}
		lists := gallai.DegreeLists(g, dcc, colors, delta)
		sol, err := gallai.BruteListColor(g, dcc, lists)
		if err != nil {
			return Result{}, fmt.Errorf("brooks: DCC recoloring: %w", err)
		}
		for i, u := range dcc {
			f.set(colors, u, sol[i])
		}
		dccRadius := gallai.SetRadius(g, dcc)
		if dccRadius < 0 {
			dccRadius = len(dcc)
		}
		total := radius + 2*dccRadius
		return Result{Radius: total, Rounds: 2*total + 2, Mode: ModeDCC}, nil
	default:
		return Result{}, fmt.Errorf("brooks: unknown mode %v", mode)
	}
}

// fallbackRecolor uncolors balls of growing radius around v and exactly
// re-colors them against the boundary with Δ-lists. Brooks' theorem
// guarantees success once the ball covers v's component (a nice graph is
// Δ-colorable); in practice tiny radii suffice. Once the ball stops
// growing every larger radius would retry the same ball, so the search
// ends there.
func (f *fixer) fallbackRecolor(colors []int, v int) (Result, error) {
	for r := 1; r <= f.g.N(); r++ {
		ball := f.ball(r)
		mark := len(f.log)
		for _, u := range ball {
			f.set(colors, u, -1)
		}
		lists := gallai.DegreeLists(f.g, ball, colors, f.delta)
		sol, err := gallai.BruteListColor(f.g, ball, lists)
		if err == nil {
			for i, u := range ball {
				f.set(colors, u, sol[i])
			}
			return Result{Radius: r, Rounds: 2*r + 2, Mode: ModeFallback}, nil
		}
		f.undo(colors, mark)
		if len(ball) == f.g.N() || (f.done && r >= len(f.ends)-1) {
			break
		}
	}
	return Result{}, fmt.Errorf("brooks: fallback recoloring failed around node %d", v)
}

// FreeColor returns the smallest color in [0, delta) unused by v's
// colored neighbors, or -1 when v sees all of them.
func FreeColor(g *graph.G, colors []int, v, delta int) int {
	used := make([]bool, delta)
	for _, u := range g.Neighbors(v) {
		if c := colors[u]; c >= 0 && c < delta {
			used[c] = true
		}
	}
	for c := 0; c < delta; c++ {
		if !used[c] {
			return c
		}
	}
	return -1
}

func containsNode(nodes []int, v int) bool {
	for _, u := range nodes {
		if u == v {
			return true
		}
	}
	return false
}
