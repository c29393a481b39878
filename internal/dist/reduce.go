package dist

import (
	"fmt"
	"slices"

	"deltacolor/local"
)

// ReduceColors reduces a proper k-coloring to a proper target-coloring with
// the classic one-color-class-per-round schedule: in the round dedicated to
// class c (from k-1 down to target), every node holding c — an independent
// set, since the coloring stays proper throughout — picks a free color in
// [0, target). With target >= Δ+1 a free color always exists; otherwise the
// stuck nodes keep their old color and an error reports them.
//
// It returns the new coloring, the rounds used (k - target), and an error
// when the input is not a proper coloring in [0, k) or some node could not
// be recolored below target.
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
	for _, e := range g.Edges() {
		if base[e[0]] == base[e[1]] {
			return nil, 0, fmt.Errorf("reduce colors: input not proper: edge (%d,%d) both colored %d", e[0], e[1], base[e[0]])
		}
	}
	if k <= target {
		return append([]int(nil), base...), 0, nil
	}

	// Stepped protocol: one Step per color class, counting down from k-1.
	// Colors travel over the int fast path.
	type reduceState struct {
		color int
		class int // class whose round the next Step completes
	}
	colors := slices.Repeat([]int{-1}, n)
	local.RunStepped(net, local.Stepped[reduceState]{
		Init: func(ctx *local.Ctx, s *reduceState) bool {
			s.color = base[ctx.ID()]
			s.class = k - 1
			ctx.BroadcastInt(s.color)
			return true
		},
		Step: func(ctx *local.Ctx, s *reduceState) bool {
			if s.color == s.class {
				used := make([]bool, target)
				for p := 0; p < ctx.Degree(); p++ {
					if m, ok := ctx.RecvInt(p); ok && m < target {
						used[m] = true
					}
				}
				for f := 0; f < target; f++ {
					if !used[f] {
						s.color = f
						break
					}
				}
				// No free color (target <= degree): keep the old color so
				// neighbors still see a consistent palette; reported below.
			}
			s.class--
			if s.class < target {
				colors[ctx.ID()] = s.color
				return false
			}
			ctx.BroadcastInt(s.color)
			return true
		},
	})

	for v := 0; v < n; v++ {
		if colors[v] >= target {
			return colors, net.Rounds(), fmt.Errorf("reduce colors: node %d stuck at color %d >= target %d (degree %d)", v, colors[v], target, g.Deg(v))
		}
	}
	return colors, net.Rounds(), nil
}
