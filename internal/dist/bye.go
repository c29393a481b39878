package dist

import "deltacolor/local"

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
