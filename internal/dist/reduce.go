package dist

import (
	"fmt"
	"math/bits"
	"slices"

	"deltacolor/local"
)

// reduceState is the cross-round node state of ReduceColors. The node's
// used set and settled ports live in its row of the run's bits.
type reduceState struct {
	color int
	class int        // class whose round the next Step completes
	open  int        // ports not yet settled
	bye   byeTracker // a neighbor that announced a target color halted
}

// ReduceColors reduces a proper k-coloring to a proper target-coloring.
// It gives every node the color of the classic one-class-per-round
// schedule: in the round dedicated to class c (from k-1 down to target),
// every node holding c — an independent set, since the coloring stays
// proper throughout — picks the smallest color in [0, target) no neighbor
// holds. With target >= Δ+1 a free color always exists; otherwise the
// stuck nodes keep their old color and an error reports them.
//
// A node does not wait for its class's round. Its pick there reads only
// the colors of its neighbors below target, final from the start, and the
// target colors its higher-class neighbors picked before it; every
// lower-class neighbor picks after it. So a node settles a port when it
// hears a lower class (the start broadcast tells it every neighbor's
// class) or a target color on it, and it picks the smallest free target
// color as soon as every port is settled, or in its class's round at the
// latest, so a lost message cannot stall it. Fault-free, the colors are
// the schedule's, and the run lasts as many rounds as the longest path of
// strictly decreasing classes at or above target, not k - target (a
// stuck node still counts down to the end).
//
// The protocol is quiet. A node announces its color at the start and once
// more when it recolors, so the run sends at most 2·Σdeg messages. A color
// below target never changes again, so a node keeps only the set of target
// colors its neighbors hold, a set that only grows. For the same reason a
// node halts as soon as its color is below target and announced: every
// such announcement is its sender's last, and the receivers mute that
// port.
//
// It returns the new coloring, the rounds charged, and an error when the
// input is not a proper coloring in [0, k) or some node could not be
// recolored below target. The charge stays the schedule's k - target
// rounds although the run ends sooner: a node that has picked cannot know
// that every other node has, so whatever runs on the coloring starts at
// the schedule's bound. A run that takes longer under a FaultPlan (a
// crashed node resumes its countdown late) is charged the rounds it took.
// A node cut off by the plan's RoundLimit before it halted keeps -1.
func ReduceColors(net *local.Network, base []int, k, target int) ([]int, int, error) {
	g := net.Graph()
	n := g.N()
	if len(base) != n {
		return nil, 0, fmt.Errorf("reduce colors: got %d base colors for %d nodes", len(base), n)
	}
	if target < 1 {
		return nil, 0, fmt.Errorf("reduce colors: target %d < 1", target)
	}
	for v := 0; v < n; v++ {
		if base[v] < 0 || base[v] >= k {
			return nil, 0, fmt.Errorf("reduce colors: node %d has color %d outside [0, %d)", v, base[v], k)
		}
	}
	same := func(u, v int) bool { return base[u] == base[v] }
	for u := range n {
		if v := clashAbove(g, u, same); v >= 0 {
			return nil, 0, fmt.Errorf("reduce colors: input not proper: edge (%d,%d) both colored %d", u, v, base[u])
		}
	}
	if k <= target {
		return append([]int(nil), base...), 0, nil
	}

	// One row of bits per node: its used set, its bye tracker's ports,
	// then its settled ports.
	wc, wp := (target+63)/64, (g.MaxDegree()+63)/64
	row := wc + 2*wp
	sets := make([]uint64, n*row)
	colors := slices.Repeat([]int{-1}, n)
	local.RunStepped(net, local.Stepped[reduceState]{
		Init: func(ctx *local.Ctx, s *reduceState) bool {
			v := ctx.ID()
			s.bye.use(sets[v*row+wc : v*row+wc+wp : v*row+wc+wp])
			s.color, s.class, s.open = base[v], k-1, ctx.Degree()
			ctx.BroadcastInt(s.color)
			if s.color < target {
				colors[v] = s.color
				return false
			}
			return true
		},
		Step: func(ctx *local.Ctx, s *reduceState) bool {
			v := ctx.ID()
			used, settled := sets[v*row:v*row+wc], sets[v*row+wc+wp:(v+1)*row]
			for p := range ctx.Degree() {
				c, ok := ctx.RecvInt(p)
				if !ok {
					continue
				}
				if uint(c) < uint(target) {
					used[c>>6] |= 1 << (c & 63)
					s.bye.note(p)
				} else if c > s.color {
					continue // a higher class, whose pick is still to come
				}
				if w, bit := p>>6, uint64(1)<<(p&63); settled[w]&bit == 0 {
					settled[w] |= bit
					s.open--
				}
			}
			if s.open == 0 || s.color == s.class {
				if f := firstClear(used); f < target {
					s.color = f
					colors[v] = f
					s.bye.castInt(ctx, f)
					return false
				}
				// No free color (target <= degree): keep the old color,
				// which no neighbor reads; reported below.
			}
			s.class--
			if s.class < target {
				colors[v] = s.color
				return false
			}
			return true
		},
	})

	rounds := max(net.Rounds(), k-target)
	for v := 0; v < n; v++ {
		if colors[v] >= target {
			return colors, rounds, fmt.Errorf("reduce colors: node %d stuck at color %d >= target %d (degree %d)", v, colors[v], target, g.Deg(v))
		}
	}
	return colors, rounds, nil
}

// firstClear returns the smallest index whose bit is clear in set, or
// 64·len(set) when every bit is set.
func firstClear(set []uint64) int {
	for w, x := range set {
		if x != ^uint64(0) {
			return w*64 + bits.TrailingZeros64(^x)
		}
	}
	return 64 * len(set)
}
