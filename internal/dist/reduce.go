package dist

import (
	"fmt"
	"math/bits"
	"slices"

	"deltacolor/local"
)

// reduceState is the cross-round node state of ReduceColors.
type reduceState struct {
	color int
	class int        // class whose round the next Step completes
	used  []uint64   // bit c: a neighbor holds target color c
	bye   byeTracker // a neighbor that announced a target color halted
}

// ReduceColors reduces a proper k-coloring to a proper target-coloring with
// the classic one-color-class-per-round schedule: in the round dedicated to
// class c (from k-1 down to target), every node holding c — an independent
// set, since the coloring stays proper throughout — picks the smallest
// color in [0, target) no neighbor holds. With target >= Δ+1 a free color
// always exists; otherwise the stuck nodes keep their old color and an
// error reports them.
//
// The protocol is quiet. A node announces its color at the start and once
// more in the round it recolors, so the run sends at most 2·Σdeg messages.
// A color below target never changes again, so a node keeps only the set
// of target colors its neighbors hold, a set that only grows. For the same
// reason a node halts as soon as its color is below target and announced:
// every such announcement is its sender's last, and the receivers mute
// that port.
//
// It returns the new coloring, the rounds charged, and an error when the
// input is not a proper coloring in [0, k) or some node could not be
// recolored below target. The charge is the schedule's k - target rounds:
// the run ends sooner when no node holds a class just above target, but no
// node could know that before the schedule's last round. A run that takes
// longer under a FaultPlan (a crashed node resumes its countdown late) is
// charged the rounds it took. A node cut off by the plan's RoundLimit
// before it halted keeps -1.
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

	// One row of bits per node: its used set, then its bye tracker's ports.
	wc, wp := (target+63)/64, (g.MaxDegree()+63)/64
	row := wc + wp
	sets := make([]uint64, n*row)
	colors := slices.Repeat([]int{-1}, n)
	local.RunStepped(net, local.Stepped[reduceState]{
		Init: func(ctx *local.Ctx, s *reduceState) bool {
			v := ctx.ID()
			s.used = sets[v*row : v*row+wc : v*row+wc]
			s.bye.use(sets[v*row+wc : (v+1)*row : (v+1)*row])
			s.color, s.class = base[v], k-1
			ctx.BroadcastInt(s.color)
			if s.color < target {
				colors[v] = s.color
				return false
			}
			return true
		},
		Step: func(ctx *local.Ctx, s *reduceState) bool {
			for p := range ctx.Degree() {
				if c, ok := ctx.RecvInt(p); ok && uint(c) < uint(target) {
					s.used[c>>6] |= 1 << (c & 63)
					s.bye.note(p)
				}
			}
			if s.color == s.class {
				if f := firstClear(s.used); f < target {
					s.color = f
					colors[ctx.ID()] = f
					s.bye.castInt(ctx, f)
					return false
				}
				// No free color (target <= degree): keep the old color,
				// which no neighbor reads; reported below.
			}
			s.class--
			if s.class < target {
				colors[ctx.ID()] = s.color
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
