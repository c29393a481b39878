// Package baseline implements the comparator the paper improves on: a
// Panconesi–Srinivasan-style Δ-coloring [PS92, PS95] built from the same
// primitive the original uses — start from a (Δ+1)-coloring and repair the
// extra color class by token-based augmenting recolorings, scheduled so
// that concurrent repairs never interact. Its round complexity is
// polylogarithmic with a higher exponent than the paper's algorithms,
// which is exactly the gap experiment E4 measures.
//
// This is a faithful-in-spirit reimplementation (README "Departures from
// the paper"): the original's network-decomposition machinery is replaced
// by (a) greedy recoloring sweeps that eliminate the easy conflicts and
// (b) Brooks token walks for the hard ones, batched by an MIS over their
// repair balls. It runs on the same frame as the paper's algorithms
// (core.Start, Repair, Finish): the same preconditions and typed errors,
// the same result type and the same final Δ-coloring check.
package baseline

import (
	"fmt"

	"deltacolor/graph"
	"deltacolor/internal/brooks"
	"deltacolor/internal/core"
	"deltacolor/internal/dist"
	"deltacolor/local"
)

// Color computes a Δ-coloring of a nice graph with the baseline algorithm:
//
//	(1) Linial + greedy reduction -> (Δ+1)-coloring;
//	(2) greedy sweeps: nodes holding color Δ take a free color in [0, Δ)
//	    when one exists (scheduled by the O(Δ²) base coloring);
//	(3) the remaining "rainbow" nodes are uncolored and repaired with
//	    Brooks token walks, batched by an MIS over their repair balls so
//	    non-interacting walks run in parallel.
//
// Result.Repairs is the number of such stuck nodes.
func Color(g *graph.G, seed int64) (*core.Result, error) {
	f, err := core.Start(g, "baseline")
	if err != nil {
		return nil, err
	}
	delta, colors, n := f.Delta, f.Colors, g.N()

	net := local.NewNetwork(g, seed)
	base, k, r1 := dist.Linial(net)
	f.Acct.Charge("linial", r1)
	reduced, r2, err := dist.ReduceColors(net, base, k, delta+1)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	copy(colors, reduced)
	f.Acct.Charge("reduce", r2)

	// Greedy sweeps: iterate the base color classes; a class node holding
	// color Δ recolors to a free color in [0, Δ) when available. One sweep
	// costs k rounds; conflicts strictly decrease, and after the first
	// sweep only "rainbow" nodes (all Δ colors in the neighborhood) remain.
	sweepRounds := 0
	for sweep := 0; sweep < 2; sweep++ {
		changed := false
		for class := 0; class < k; class++ {
			for v := 0; v < n; v++ {
				if base[v] != class || colors[v] != delta {
					continue
				}
				if c := brooks.FreeColor(g, colors, v, delta); c >= 0 {
					colors[v] = c
					changed = true
				}
			}
		}
		sweepRounds += k
		if !changed {
			break
		}
	}
	f.Acct.Charge("greedy-sweeps", sweepRounds)

	// Hard cases: uncolor and run Brooks token walks through the batched
	// repair engine. The stuck nodes form an independent set (they all
	// hold color Δ); the engine schedules an MIS over their realized
	// repair balls per batch and charges the max walk length per batch.
	var stuck []int
	for v := 0; v < n; v++ {
		if colors[v] == delta {
			colors[v] = -1
			stuck = append(stuck, v)
		}
	}
	if len(stuck) > 0 {
		if err := f.Repair("token-walks", "token", stuck, seed+2); err != nil {
			return nil, err
		}
	}
	return f.Finish(len(stuck))
}
