package dist

import (
	"fmt"

	"deltacolor/graph"
	"deltacolor/local"
)

// ListInstance is a (deg+1)-list-coloring instance over a layer of active
// nodes: every active node must pick a color from its list, and the lists
// already exclude the colors of finished neighbors (the partial coloring
// the layer is solved against).
type ListInstance struct {
	Active []bool  // nodes to color
	Lists  [][]int // Lists[v]: allowed colors for active v, ascending
	Delta  int     // palette bound: all list colors lie in [0, Delta)
}

// NewListInstance builds the instance for one layer: the list of an active
// node is [0, delta) minus the colors its already colored neighbors hold in
// partial (-1 = uncolored). active == nil activates every node.
func NewListInstance(g *graph.G, active []bool, partial []int, delta int) *ListInstance {
	n := g.N()
	act := make([]bool, n)
	for v := 0; v < n; v++ {
		act[v] = active == nil || active[v]
	}
	lists := make([][]int, n)
	for v := 0; v < n; v++ {
		if !act[v] {
			continue
		}
		used := make([]bool, delta)
		for _, u := range g.Neighbors(v) {
			if c := partial[u]; c >= 0 && c < delta {
				used[c] = true
			}
		}
		list := make([]int, 0, delta)
		for c := 0; c < delta; c++ {
			if !used[c] {
				list = append(list, c)
			}
		}
		lists[v] = list
	}
	return &ListInstance{Active: act, Lists: lists, Delta: delta}
}

// CheckDegPlusOne verifies the layering invariant that makes the instance
// always solvable: every active node's list strictly exceeds its degree in
// the active subgraph.
func (li *ListInstance) CheckDegPlusOne(g *graph.G) error {
	for v := 0; v < g.N(); v++ {
		if !li.Active[v] {
			continue
		}
		deg := 0
		for _, u := range g.Neighbors(v) {
			if li.Active[u] {
				deg++
			}
		}
		if len(li.Lists[v]) < deg+1 {
			return fmt.Errorf("list instance: node %d has %d list colors for active degree %d", v, len(li.Lists[v]), deg)
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
	inactive bool
	afterB   bool // the next Step completes a round B (else a round A)
	color    int
	propose  int
	stuck    bool // list ran dry (infeasible instance)
	phase    int
	list     []int
	known    []byte // misUnknown / misUndecided-style tracking
	bye      byeTracker
	finals   map[int]bool
}

// lcNote folds a decoded (done, bye) announcement on port p into the
// tracking state.
func (s *listRandState) lcNote(p int, done, bye bool, c int) {
	if bye {
		s.bye.note(p)
	}
	if done {
		s.known[p] = misIn
		if c >= 0 {
			s.finals[c] = true
		}
	}
}

// ListColorRandomized solves the instance with random color trials: each
// uncolored node proposes a uniform color from its remaining list; a
// proposal is kept unless a finished neighbor owns the color or a proposing
// neighbor with smaller ID picked it too. Kept colors are final; neighbors
// prune them from their lists. Nodes halt once their whole neighborhood is
// finished, so the returned rounds are the measured cost, O(log n) w.h.p.
// on (deg+1)-instances. Nodes still uncolored at the phase cap are reported
// as an error (callers defer them to the repair pass).
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

	outs := local.RunSteppedWithInput(net, local.Stepped[listRandState]{
		Init: func(ctx *local.Ctx, s *listRandState) bool {
			if !ctx.Input().(bool) {
				// Inactive: one done announcement with the bye flag (this
				// node leaves after the round) so neighbors mute the port.
				ctx.BroadcastInt(encDC(true, true, -1))
				s.inactive = true
				return true
			}
			s.list = append([]int(nil), li.Lists[ctx.ID()]...)
			s.color = -1
			s.known = make([]byte, ctx.Degree())
			s.bye.init(ctx.Degree())
			s.finals = make(map[int]bool)
			sendA(ctx, s)
			return true
		},
		Step: func(ctx *local.Ctx, s *listRandState) bool {
			if s.inactive {
				ctx.SetOutput(-1)
				return false
			}
			if !s.afterB {
				// A round A just completed: collect announcements and
				// competing proposals.
				type prop struct {
					color int
					id    int
				}
				props := make([]prop, 0, ctx.Degree())
				for p := 0; p < ctx.Degree(); p++ {
					if e, ok := ctx.RecvInt(p); ok {
						done, bye, c := decDC(e)
						s.lcNote(p, done, bye, c)
						continue
					}
					if m := ctx.Recv(p); m != nil {
						s.known[p] = misUndecided
						if m[0] >= 0 {
							props = append(props, prop{color: int(m[0]), id: int(m[1])})
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
						ctx.SetOutput(s.color)
						return false
					}
				}
				if s.color < 0 && s.propose >= 0 && !s.finals[s.propose] {
					keep := true
					for _, pr := range props {
						if pr.color == s.propose && pr.id < ctx.ID() {
							keep = false
							break
						}
					}
					if keep {
						s.color = s.propose
					}
				}
				// Round B: announce the outcome; neighbors prune kept colors.
				s.bye.castInt(ctx, encDC(s.color >= 0 || s.stuck, false, s.color))
				s.afterB = true
				return true
			}
			// A round B just completed: record finals and prune the list.
			for p := 0; p < ctx.Degree(); p++ {
				if e, ok := ctx.RecvInt(p); ok {
					done, bye, c := decDC(e)
					s.lcNote(p, done, bye, c)
				}
			}
			if s.color < 0 {
				pruned := s.list[:0]
				for _, c := range s.list {
					if !s.finals[c] {
						pruned = append(pruned, c)
					}
				}
				s.list = pruned
				// An empty list means the instance is infeasible for this
				// node; it announces done(-1) next round so neighbors halt.
				s.stuck = len(s.list) == 0
			}
			s.phase++
			if s.phase >= maxPhases {
				ctx.SetOutput(s.color)
				return false
			}
			sendA(ctx, s)
			return true
		},
	}, activeInputs(li.Active))

	colors := make([]int, n)
	for v, o := range outs {
		colors[v] = o.(int)
	}
	return colors, net.Rounds(), checkInstanceSolved(g, li, colors)
}

// ListColorDeterministic solves the instance scheduled by the classes of a
// proper base coloring (typically Linial's): in the round dedicated to
// class c, every uncolored active node of that class — an independent set —
// takes the smallest list color not finalized in its neighborhood. On a
// (deg+1)-instance every node succeeds, in exactly baseK rounds. The whole
// protocol ships packed (done, color) integers, so it runs allocation-free
// on the int fast path.
func ListColorDeterministic(net *local.Network, li *ListInstance, baseColors []int, baseK int) ([]int, int, error) {
	g := net.Graph()
	n := g.N()
	if len(baseColors) != n {
		return nil, 0, fmt.Errorf("deterministic list coloring: got %d base colors for %d nodes", len(baseColors), n)
	}
	for v := 0; v < n; v++ {
		if baseColors[v] < 0 || baseColors[v] >= baseK {
			return nil, 0, fmt.Errorf("deterministic list coloring: node %d has base class %d outside [0, %d)", v, baseColors[v], baseK)
		}
	}
	for _, e := range g.Edges() {
		if li.Active[e[0]] && li.Active[e[1]] && baseColors[e[0]] == baseColors[e[1]] {
			return nil, 0, fmt.Errorf("deterministic list coloring: base classes not proper on edge (%d,%d)", e[0], e[1])
		}
	}

	type listDetState struct {
		active bool
		color  int
		class  int // class whose round the next Step completes
		finals map[int]bool
	}
	outs := local.RunSteppedWithInput(net, local.Stepped[listDetState]{
		Init: func(ctx *local.Ctx, s *listDetState) bool {
			s.active = ctx.Input().(bool)
			s.color = -1
			s.finals = make(map[int]bool)
			ctx.BroadcastInt(encDC(false, false, s.color))
			return true
		},
		Step: func(ctx *local.Ctx, s *listDetState) bool {
			for p := 0; p < ctx.Degree(); p++ {
				if e, ok := ctx.RecvInt(p); ok {
					if done, _, c := decDC(e); done && c >= 0 {
						s.finals[c] = true
					}
				}
			}
			if s.active && s.color < 0 && baseColors[ctx.ID()] == s.class {
				for _, c := range li.Lists[ctx.ID()] {
					if !s.finals[c] {
						s.color = c
						break
					}
				}
			}
			s.class++
			if s.class >= baseK {
				ctx.SetOutput(s.color)
				return false
			}
			ctx.BroadcastInt(encDC(s.color >= 0, false, s.color))
			return true
		},
	}, activeInputs(li.Active))

	colors := make([]int, n)
	for v, o := range outs {
		colors[v] = o.(int)
	}
	return colors, net.Rounds(), checkInstanceSolved(g, li, colors)
}

// activeInputs exposes the active flags as per-node inputs.
func activeInputs(active []bool) []any {
	inputs := make([]any, len(active))
	for v := range active {
		inputs[v] = active[v]
	}
	return inputs
}

// checkInstanceSolved verifies that every active node took a color from its
// list and no two adjacent active nodes collide.
func checkInstanceSolved(g *graph.G, li *ListInstance, colors []int) error {
	for v := 0; v < g.N(); v++ {
		if !li.Active[v] {
			continue
		}
		if colors[v] < 0 {
			return fmt.Errorf("list coloring: node %d left uncolored", v)
		}
		inList := false
		for _, c := range li.Lists[v] {
			if c == colors[v] {
				inList = true
				break
			}
		}
		if !inList {
			return fmt.Errorf("list coloring: node %d took color %d outside its list", v, colors[v])
		}
	}
	for _, e := range g.Edges() {
		if li.Active[e[0]] && li.Active[e[1]] && colors[e[0]] == colors[e[1]] {
			return fmt.Errorf("list coloring: edge (%d,%d) monochromatic in %d", e[0], e[1], colors[e[0]])
		}
	}
	return nil
}
