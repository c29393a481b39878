package dist

import (
	"slices"

	"deltacolor/local"
)

// byeTracker is the shared halt-announcement bookkeeping of the
// early-halting protocols (LubyMIS, randomized list coloring): a node
// that halts flags its final staged messages with a "bye" bit, and its
// neighbors mute the port — no message is ever staged for a receiver the
// sender could have known was gone, which is exactly what the runtime's
// strict dead-send mode checks.
type byeTracker struct {
	dead  []bool // dead[p]: the neighbor on port p halted
	ndead int
}

func (b *byeTracker) init(deg int) { b.dead = make([]bool, deg) }

// note records a bye heard on port p.
func (b *byeTracker) note(p int) {
	if !b.dead[p] {
		b.dead[p] = true
		b.ndead++
	}
}

// castInt stages an int-lane message on every listening port (a plain
// Broadcast when all are).
func (b *byeTracker) castInt(ctx *local.Ctx, v int) {
	if b.ndead == 0 {
		ctx.BroadcastInt(v)
		return
	}
	for p, dead := range b.dead {
		if !dead {
			ctx.SendInt(p, v)
		}
	}
}

// castRec stages a record like castInt; every listening port gets the
// same slice.
func (b *byeTracker) castRec(ctx *local.Ctx, rec []int32) {
	if b.ndead == 0 {
		ctx.Broadcast(rec)
		return
	}
	for p, dead := range b.dead {
		if !dead {
			ctx.Send(p, rec)
		}
	}
}

// maskedState is a masked protocol's node state: a boundary node only
// says bye.
type maskedState[S any] struct {
	boundary bool
	s        S
}

// runMasked runs p on the active nodes of a masked protocol (members, in
// ascending order) and returns the rounds used. Only the members and their
// boundary — the inactive nodes next to one — take part. A boundary node
// never enters p: it stages bye toward its active neighbors in round 1 and
// halts at its first Step, so every active node hears which ports lead out
// of the layer before it could send there twice. A node farther out never
// runs (the engine's node set), so the run costs the layer and its
// boundary, not n. With no member nothing runs, in 0 rounds.
func runMasked[S any](net *local.Network, members []int, active []bool, bye int, p local.Stepped[S]) int {
	if len(members) == 0 {
		return 0
	}
	g := net.Graph()
	nodes := slices.Clone(members) // and the boundary, each once per active neighbor
	for _, v := range members {
		for _, u := range g.Neighbors(v) {
			if !active[u] {
				nodes = append(nodes, u)
			}
		}
	}
	local.RunStepped(net, local.Stepped[maskedState[S]]{
		Init: func(ctx *local.Ctx, m *maskedState[S]) bool {
			v := ctx.ID()
			if active[v] {
				return p.Init(ctx, &m.s)
			}
			for q, u := range g.Neighbors(v) {
				if active[u] {
					ctx.SendInt(q, bye)
				}
			}
			m.boundary = true
			return true
		},
		Step: func(ctx *local.Ctx, m *maskedState[S]) bool {
			return !m.boundary && p.Step(ctx, &m.s)
		},
	}, nodes...)
	return net.Rounds()
}
