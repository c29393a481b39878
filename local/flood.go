package local

// Stepped flood kernel: the distance-bounded reachability probe that
// backs internal/core's netdec ruling set. FloodStepped runs entirely on
// the int lane; its rounds are allocation-free, and the regression test
// pins that.

import "slices"

// FloodStepped floods from the source set for exactly radius rounds and
// reports, per external node ID, whether the node lies within graph
// distance radius of some source. sources is indexed by external ID; the
// result slice is freshly allocated. radius <= 0 or an empty source set
// short-circuits without running the network (reached == sources).
//
// The protocol is the textbook TTL flood: a source broadcasts its budget,
// a node that receives a larger budget than it has seen becomes reached
// and re-broadcasts budget-1 while it stays positive. Every message is a
// single int32, so flood rounds ride the allocation-free int lane. All
// nodes run exactly radius rounds and halt together, so the flood is
// dead-send-clean under strict mode.
func FloodStepped(net *Network, sources []bool, radius int) []bool {
	n := net.g.N()
	reached := make([]bool, n)
	copy(reached, sources)
	if radius <= 0 || !slices.Contains(sources, true) {
		return reached
	}
	RunStepped(net, floodProgram(sources, radius, reached))
	return reached
}

// floodState is one node's flat flood state: the largest budget it has
// received (sources start at radius+1 so they never re-forward) and the
// round counter that makes every node halt together after radius rounds.
type floodState struct {
	best  int32
	round int32
}

// floodProgram builds the TTL-flood stepped program. Messages are single
// int32 budgets on the int lane; a budget b means "you are within
// distance radius, forward b-1 if positive". Each node writes its verdict
// into reached[ctx.ID()] when it halts.
func floodProgram(sources []bool, radius int, reached []bool) Stepped[floodState] {
	return Stepped[floodState]{
		Init: func(ctx *Ctx, s *floodState) bool {
			if sources[ctx.ID()] {
				s.best = int32(radius) + 1
				ctx.BroadcastInt(radius)
			}
			return true
		},
		Step: func(ctx *Ctx, s *floodState) bool {
			s.round++
			deg := ctx.Degree()
			got := int32(0)
			for p := 0; p < deg; p++ {
				if m, ok := ctx.RecvInt(p); ok && int32(m) > got {
					got = int32(m)
				}
			}
			if got > s.best {
				s.best = got
				if got > 1 {
					ctx.BroadcastInt(int(got) - 1)
				}
			}
			if int(s.round) == radius {
				reached[ctx.ID()] = s.best > 0
				return false
			}
			return true
		},
	}
}
