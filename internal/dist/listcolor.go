package dist

import (
	"fmt"
	"slices"

	"deltacolor/graph"
	"deltacolor/local"
)

// ListInstance is a (deg+1)-list-coloring instance over a layer of active
// nodes against a partial coloring: every active node must pick a color
// from its list, the colors in [0, Delta) that no neighbor holds in
// Partial. Lists are not stored: each protocol derives an active node's
// list at Init, and the checks derive it where they read it. The checks
// and the protocols read only Nodes and their neighbors, and a protocol
// returns its colors aligned with Nodes, so an instance costs its layer
// and its boundary, not n.
type ListInstance struct {
	Nodes   []int  // the nodes to color, ascending
	Active  []bool // Active[v] reports whether v is in Nodes
	Partial []int  // the coloring the layer is solved against (-1 = uncolored)
	Delta   int    // palette bound: all list colors lie in [0, Delta)
}

// NewListInstance builds the instance for one layer, listing the active
// nodes in one pass over active; active == nil activates every node. A
// caller that already holds the layer's nodes in ascending order (the
// layer colorer) fills the fields itself. The instance reads active and
// partial in place, so neither may change while it is in use.
func NewListInstance(g *graph.G, active []bool, partial []int, delta int) *ListInstance {
	if active == nil {
		active = slices.Repeat([]bool{true}, g.N())
	}
	var nodes []int
	for v, a := range active {
		if a {
			nodes = append(nodes, v)
		}
	}
	return &ListInstance{Nodes: nodes, Active: active, Partial: partial, Delta: delta}
}

// index returns the position of active node v in Nodes.
func (li *ListInstance) index(v int) int {
	i, _ := slices.BinarySearch(li.Nodes, v)
	return i
}

// list returns v's list, ascending, in buf's storage (grown when short).
func (li *ListInstance) list(buf []int, g *graph.G, v int) []int {
	buf = buf[:0]
	for c := range li.Delta {
		buf = append(buf, c)
	}
	for _, u := range g.Neighbors(v) {
		if c := li.Partial[u]; c >= 0 && c < li.Delta {
			buf[c] = -1
		}
	}
	return slices.DeleteFunc(buf, func(c int) bool { return c < 0 })
}

// CheckDegPlusOne verifies the layering invariant that makes the instance
// always solvable: every active node's list strictly exceeds its degree in
// the active subgraph.
func (li *ListInstance) CheckDegPlusOne(g *graph.G) error {
	var list []int
	for _, v := range li.Nodes {
		deg := 0
		for _, u := range g.Neighbors(v) {
			if li.Active[u] {
				deg++
			}
		}
		if list = li.list(list, g, v); len(list) < deg+1 {
			return fmt.Errorf("list instance: node %d has %d list colors for active degree %d", v, len(list), deg)
		}
	}
	return nil
}

// encDC packs a (done, bye, color) announcement (color -1 = none) into a
// non-negative int for the allocation-free int lane; decDC unpacks it.
// Everything the protocols exchange travels this way except live
// proposals, which need the sender ID for tie-breaking and travel as the
// two-word record [color, ID]. The done bit
// is carried explicitly: a live-but-uncolored node and a stuck (done,
// no color) node both report color -1 but mean different things to the
// receiver. The bye bit marks the sender's last words — it halts this
// round, and the receiver mutes the port so no avoidable dead sends
// occur (strict mode checks exactly that).
func encDC(done, bye bool, color int) int {
	e := (color + 1) << 2
	if bye {
		e |= 2
	}
	if done {
		e |= 1
	}
	return e
}

func decDC(e int) (done, bye bool, color int) { return e&1 == 1, e&2 == 2, (e >> 2) - 1 }

// listRandState is the cross-round node state of the randomized protocol.
type listRandState struct {
	afterB  bool // the next Step completes a round B (else a round A)
	color   int
	propose int
	stuck   bool // list ran dry (infeasible instance)
	phase   int
	list    []int  // own list minus every final heard so far
	known   []byte // misUnknown / misUndecided-style tracking
	bye     byeTracker
}

// lcNote folds a decoded (done, bye) announcement on port p into the
// tracking state; an announced final leaves the list.
func (s *listRandState) lcNote(p int, done, bye bool, c int) {
	if bye {
		s.bye.note(p)
	}
	if done {
		s.known[p] = misIn
		if c >= 0 {
			s.list = slices.DeleteFunc(s.list, func(x int) bool { return x == c })
		}
	}
}

// ListColorRandomized solves the instance with random color trials: each
// uncolored node proposes a uniform color from its remaining list; a
// proposal is kept unless a finished neighbor owns the color or a proposing
// neighbor with smaller ID picked it too. Kept colors are final; a node
// folds every final it hears out of its list on receipt. A node whose list
// runs dry (or starts empty) is stuck: it announces done without a color.
// Nodes halt once their whole neighborhood is finished, so the returned
// rounds are the measured cost, O(log n) w.h.p. on (deg+1)-instances.
// Nodes still uncolored at the phase cap are reported as an error
// (callers defer them to the repair pass).
//
// Only the layer and its boundary run (runMasked): an inactive neighbor
// sends one bye (done, no color) toward the layer in round 1 and halts.
// The colors are aligned with li.Nodes (-1 = uncolored). An instance with
// no active node returns no colors in 0 rounds without running the
// network.
func ListColorRandomized(net *local.Network, li *ListInstance) ([]int, int, error) {
	g := net.Graph()
	n := g.N()
	maxPhases := 16
	for top := n + 2; top > 1; top /= 2 {
		maxPhases += 6
	}

	// sendA stages the round-A exchange: done nodes announce their final
	// color over the int lane; live nodes propose with a [color, ID]
	// record (the receiver needs their ID).
	sendA := func(ctx *local.Ctx, s *listRandState) {
		s.propose = -1
		if s.color < 0 && !s.stuck {
			s.propose = s.list[ctx.Rand().Intn(len(s.list))]
		}
		if s.color >= 0 || s.stuck {
			s.bye.castInt(ctx, encDC(true, false, s.color))
		} else {
			s.bye.castRec(ctx, []int32{int32(s.propose), int32(ctx.ID())})
		}
		s.afterB = false
	}

	colors := slices.Repeat([]int{-1}, len(li.Nodes))
	rounds := runMasked(net, li.Nodes, li.Active, encDC(true, true, -1), local.Stepped[listRandState]{
		Init: func(ctx *local.Ctx, s *listRandState) bool {
			s.list = li.list(make([]int, 0, li.Delta), g, ctx.ID())
			s.stuck = len(s.list) == 0
			s.color = -1
			s.known = make([]byte, ctx.Degree())
			s.bye.init(ctx.Degree())
			sendA(ctx, s)
			return true
		},
		Step: func(ctx *local.Ctx, s *listRandState) bool {
			if !s.afterB {
				// A round A just completed: fold in announcements, and
				// look for a proposing neighbor with smaller ID that
				// picked this node's color.
				beaten := false
				for p := 0; p < ctx.Degree(); p++ {
					if e, ok := ctx.RecvInt(p); ok {
						done, bye, c := decDC(e)
						s.lcNote(p, done, bye, c)
						continue
					}
					if m := ctx.Recv(p); m != nil {
						s.known[p] = misUndecided
						if int(m[0]) == s.propose && int(m[1]) < ctx.ID() {
							beaten = true
						}
					}
				}
				if s.color >= 0 || s.stuck {
					done := true
					for p := 0; p < ctx.Degree(); p++ {
						if s.known[p] != misIn {
							done = false
							break
						}
					}
					if done {
						// Halt: stage one last bye announcement so listening
						// neighbors mute this port, then leave.
						s.bye.castInt(ctx, encDC(true, true, s.color))
						colors[li.index(ctx.ID())] = s.color
						return false
					}
				}
				// The proposal is still on the list unless a neighbor
				// finished with it.
				if s.color < 0 && s.propose >= 0 && !beaten && slices.Contains(s.list, s.propose) {
					s.color = s.propose
				}
				// Round B: announce the outcome; neighbors fold kept colors.
				s.bye.castInt(ctx, encDC(s.color >= 0 || s.stuck, false, s.color))
				s.afterB = true
				return true
			}
			// A round B just completed: fold in the finals.
			for p := 0; p < ctx.Degree(); p++ {
				if e, ok := ctx.RecvInt(p); ok {
					done, bye, c := decDC(e)
					s.lcNote(p, done, bye, c)
				}
			}
			if s.color < 0 {
				// An empty list means the instance is infeasible for this
				// node; it announces done(-1) next round so neighbors halt.
				s.stuck = len(s.list) == 0
			}
			s.phase++
			if s.phase >= maxPhases {
				colors[li.index(ctx.ID())] = s.color
				return false
			}
			sendA(ctx, s)
			return true
		},
	})
	return colors, rounds, checkInstanceSolved(g, li, colors)
}

// ListColorDeterministic solves the instance scheduled by the classes of a
// proper base coloring (in the pipelines, one (Δ+1)-coloring of the whole
// graph): in the round dedicated to class c, every uncolored active node
// of that class — an independent set — takes the smallest list color not
// finalized in its neighborhood. On a (deg+1)-instance every node
// succeeds.
//
// Only the layer and its boundary run (runMasked). An inactive neighbor
// sends one bye (done, no color) toward the layer in round 1 and halts at
// its first Step, leaving its color -1. An uncolored active node sends
// nothing. A colored active node re-announces its final color every round
// on every port not muted by a bye; the repetition is what lets a dropped
// announcement heal. A node derives its list at Init and folds the first
// final it hears on each port out of it, so the head of the list is always
// its pick. Only the active nodes' base classes are read, and they must
// lie in [0, baseK).
//
// With at least one active node the run takes exactly baseK rounds: every
// active node steps through all baseK classes and halts after the last.
// The colors are aligned with li.Nodes (-1 = uncolored). An instance with
// no active node returns no colors and 0 rounds without running the
// network.
func ListColorDeterministic(net *local.Network, li *ListInstance, baseColors []int, baseK int) ([]int, int, error) {
	g := net.Graph()
	n := g.N()
	if len(baseColors) != n {
		return nil, 0, fmt.Errorf("deterministic list coloring: got %d base colors for %d nodes", len(baseColors), n)
	}
	for _, v := range li.Nodes {
		if baseColors[v] < 0 || baseColors[v] >= baseK {
			return nil, 0, fmt.Errorf("deterministic list coloring: node %d has base class %d outside [0, %d)", v, baseColors[v], baseK)
		}
	}
	if u, v, ok := activeClash(g, li, func(v int) int { return baseColors[v] }); ok {
		return nil, 0, fmt.Errorf("deterministic list coloring: base classes not proper on edge (%d,%d)", u, v)
	}

	type listDetState struct {
		color  int
		class  int    // class whose round the next Step completes
		list   []int  // own list minus every final folded in so far
		folded []bool // folded[p]: port p's final is out of list
		bye    byeTracker
	}
	colors := slices.Repeat([]int{-1}, len(li.Nodes))
	rounds := runMasked(net, li.Nodes, li.Active, encDC(true, true, -1), local.Stepped[listDetState]{
		Init: func(ctx *local.Ctx, s *listDetState) bool {
			s.color = -1
			s.list = li.list(make([]int, 0, li.Delta), g, ctx.ID())
			s.folded = make([]bool, ctx.Degree())
			s.bye.init(ctx.Degree())
			return true
		},
		Step: func(ctx *local.Ctx, s *listDetState) bool {
			for p := 0; p < ctx.Degree(); p++ {
				e, ok := ctx.RecvInt(p)
				if !ok {
					continue
				}
				done, bye, c := decDC(e)
				if bye {
					s.bye.note(p)
				}
				if done && c >= 0 && !s.folded[p] {
					s.folded[p] = true
					s.list = slices.DeleteFunc(s.list, func(x int) bool { return x == c })
				}
			}
			if s.color < 0 && len(s.list) > 0 && baseColors[ctx.ID()] == s.class {
				s.color = s.list[0]
			}
			s.class++
			if s.class >= baseK {
				colors[li.index(ctx.ID())] = s.color
				return false
			}
			if s.color >= 0 {
				s.bye.castInt(ctx, encDC(true, false, s.color))
			}
			return true
		},
	})
	return colors, rounds, checkInstanceSolved(g, li, colors)
}

// checkInstanceSolved verifies that every active node took a color from its
// list and no two adjacent active nodes collide; colors is aligned with
// li.Nodes.
func checkInstanceSolved(g *graph.G, li *ListInstance, colors []int) error {
	var list []int
	for i, v := range li.Nodes {
		if colors[i] < 0 {
			return fmt.Errorf("list coloring: node %d left uncolored", v)
		}
		if list = li.list(list, g, v); !slices.Contains(list, colors[i]) {
			return fmt.Errorf("list coloring: node %d took color %d outside its list", v, colors[i])
		}
	}
	color := func(v int) int { return colors[li.index(v)] }
	if u, v, ok := activeClash(g, li, color); ok {
		return fmt.Errorf("list coloring: edge (%d,%d) monochromatic in %d", u, v, color(u))
	}
	return nil
}

// activeClash returns the first edge (u, v), u < v, in g.Edges() order
// whose endpoints are both active and share a key, reading only the
// adjacency of active nodes.
func activeClash(g *graph.G, li *ListInstance, key func(v int) int) (int, int, bool) {
	clash := func(u, v int) bool { return li.Active[v] && key(v) == key(u) }
	for _, u := range li.Nodes {
		if v := clashAbove(g, u, clash); v >= 0 {
			return u, v, true
		}
	}
	return 0, 0, false
}

// clashAbove returns the smallest neighbor v > u of u with clash(u, v),
// or -1. Asked for u in ascending order, its first hit is the first such
// edge in g.Edges() order, found without building or sorting the edge
// list.
func clashAbove(g *graph.G, u int, clash func(u, v int) bool) int {
	w := -1
	for _, v := range g.Neighbors(u) {
		if v > u && (w < 0 || v < w) && clash(u, v) {
			w = v
		}
	}
	return w
}
