package local_test

import (
	"fmt"

	"deltacolor/graph"
	"deltacolor/local"
)

// Writing a LOCAL algorithm from scratch: each node learns the minimum ID
// in its 2-neighborhood in exactly two rounds. The harness delivers one
// message per edge per round; Init stages the first round's messages, and
// each Step reads one round's arrivals and stages the next. A node writes
// its result into the caller's slice at its own ID.
func ExampleRunStepped() {
	// A path 0-1-2-3.
	g := graph.New(4)
	g.MustEdge(0, 1)
	g.MustEdge(1, 2)
	g.MustEdge(2, 3)

	// Per-node state: the smallest ID seen so far and the rounds done.
	type state struct{ min, round int }
	net := local.NewNetwork(g, 1)
	outs := make([]int, g.N())
	local.RunStepped(net, local.Stepped[state]{
		Init: func(ctx *local.Ctx, s *state) bool {
			s.min = ctx.ID()
			ctx.BroadcastInt(s.min)
			return true
		},
		Step: func(ctx *local.Ctx, s *state) bool {
			for p := 0; p < ctx.Degree(); p++ {
				if m, ok := ctx.RecvInt(p); ok && m < s.min {
					s.min = m
				}
			}
			s.round++
			if s.round == 2 {
				outs[ctx.ID()] = s.min
				return false
			}
			ctx.BroadcastInt(s.min)
			return true
		},
	})

	fmt.Println(outs, "in", net.Rounds(), "rounds")
	// Output: [0 0 0 1] in 2 rounds
}
