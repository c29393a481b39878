package dist

import (
	"slices"

	"deltacolor/local"
)

// byeTracker is the shared halt-announcement bookkeeping of the
// early-halting protocols (LubyMIS, the list colorings, ReduceColors): a
// node that halts flags its final staged messages with a "bye" (or, in
// ReduceColors, its final color), and its neighbors mute the port — no
// message is ever staged for a receiver the sender could have known was
// gone, which is exactly what the runtime's strict dead-send mode checks.
type byeTracker struct {
	dead  []uint64 // bit p: the neighbor on port p halted
	ndead int
}

// init backs the tracker with fresh storage for deg ports.
func (b *byeTracker) init(deg int) { b.use(make([]uint64, (deg+63)/64)) }

// use backs the tracker with words, which must be zero and hold one bit
// per port.
func (b *byeTracker) use(words []uint64) { b.dead, b.ndead = words, 0 }

// note records a bye heard on port p.
func (b *byeTracker) note(p int) {
	if w, bit := p>>6, uint64(1)<<(p&63); b.dead[w]&bit == 0 {
		b.dead[w] |= bit
		b.ndead++
	}
}

// listening reports whether the neighbor on port p has not said bye.
func (b *byeTracker) listening(p int) bool { return b.dead[p>>6]&(1<<(p&63)) == 0 }

// castInt stages an int-lane message on every listening port (a plain
// Broadcast when all are).
func (b *byeTracker) castInt(ctx *local.Ctx, v int) {
	if b.ndead == 0 {
		ctx.BroadcastInt(v)
		return
	}
	for p := range ctx.Degree() {
		if b.listening(p) {
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
	for p := range ctx.Degree() {
		if b.listening(p) {
			ctx.Send(p, rec)
		}
	}
}

// runMasked runs p on the active nodes of a masked protocol (members, in
// ascending order) and returns the rounds used. Only the members and their
// boundary — the inactive nodes next to one — take part. A boundary node
// never enters p: it stages bye toward its active neighbors and halts in
// Init, so every active node hears which ports lead out of the layer
// before it could send there twice (a message an active node stages in
// Init toward the boundary is an unavoidable dead send), and no crash
// window can hold it. A node farther out never runs (the engine's node
// set), so the run costs the layer and its boundary, not n. With no
// member nothing runs, in 0 rounds.
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
	local.RunStepped(net, local.Stepped[S]{
		Init: func(ctx *local.Ctx, s *S) bool {
			v := ctx.ID()
			if active[v] {
				return p.Init(ctx, s)
			}
			for q, u := range g.Neighbors(v) {
				if active[u] {
					ctx.SendInt(q, bye)
				}
			}
			return false
		},
		Step: p.Step,
	}, nodes...)
	return net.Rounds()
}
