// Frequency assignment on a radio tower network — the classic motivating
// workload for distributed coloring: towers whose ranges overlap must not
// share a frequency, the spectrum is scarce (we want max-degree many
// channels, not max-degree+1), and each tower can only talk to the towers
// it interferes with (the LOCAL model is the real communication model).
//
// The example builds a unit-disk interference graph from random tower
// positions, prunes it to a "nice" graph (the theorems' precondition),
// Δ-colors it, and prints the channel assignment statistics plus a small
// ASCII map.
package main

import (
	"errors"
	"fmt"
	"log"
	"math"
	"math/rand"

	"deltacolor"
	"deltacolor/graph"
	"deltacolor/verify"
)

type tower struct{ x, y float64 }

func main() {
	const (
		nTowers = 900
		world   = 30.0 // towers live in a world×world square
		radius  = 1.45 // interference radius
		maxDeg  = 7    // drop weakest links above this degree (spectrum planning)
	)
	rng := rand.New(rand.NewSource(7))

	towers := make([]tower, nTowers)
	for i := range towers {
		towers[i] = tower{rng.Float64() * world, rng.Float64() * world}
	}

	g := interferenceGraph(towers, radius, maxDeg)
	delta := g.MaxDegree()
	fmt.Printf("interference graph: %d towers, %d conflicting pairs, Δ=%d\n", g.N(), g.M(), delta)

	// Real layouts are disconnected: a dense urban core plus isolated
	// towers, chains along roads, and the odd triangle. The distributed
	// Brooks theorem requires "nice" components (not a path, cycle or
	// clique); those degenerate components are trivially assignable anyway.
	// Color each component with the right tool.
	colors := make([]int, g.N())
	for i := range colors {
		colors[i] = -1
	}
	comp, count := g.ConnectedComponents()
	byComp := make([][]int, count)
	for v, c := range comp {
		byComp[c] = append(byComp[c], v)
	}
	rounds, distributed, trivial := 0, 0, 0
	for _, nodes := range byComp {
		sub, orig, err := g.InducedSubgraph(nodes)
		if err != nil {
			log.Fatal(err)
		}
		res, err := deltacolor.Color(sub, deltacolor.Options{Seed: 7})
		switch {
		case err == nil:
			for i, c := range res.Colors {
				colors[orig[i]] = c
			}
			if res.Rounds > rounds {
				rounds = res.Rounds // components run in parallel in LOCAL
			}
			distributed += len(nodes)
		case errors.Is(err, deltacolor.ErrNotNice), errors.Is(err, deltacolor.ErrDegreeTooSmall),
			errors.Is(err, deltacolor.ErrComplete):
			// Paths, small cycles, cliques, isolated towers: assign greedily
			// (uses at most deg+1 <= Δ+1 channels, usually far fewer).
			for _, v := range orig {
				colors[v] = greedyChannel(g, colors, v)
			}
			trivial += len(nodes)
		default:
			log.Fatalf("coloring failed: %v", err)
		}
	}

	channels := 0
	for _, c := range colors {
		if c+1 > channels {
			channels = c + 1
		}
	}
	if err := verify.DeltaColoring(g, colors, max(channels, delta)); err != nil {
		log.Fatalf("invalid assignment: %v", err)
	}
	fmt.Printf("assigned %d channels: %d towers via the distributed Δ-coloring (max %d LOCAL rounds),\n",
		channels, distributed, rounds)
	fmt.Printf("%d towers in degenerate components assigned trivially\n", trivial)

	// Spectrum usage per channel.
	counts := make([]int, channels)
	for _, c := range colors {
		counts[c]++
	}
	for c, k := range counts {
		fmt.Printf("  channel %d: %3d towers\n", c, k)
	}

	// Interference check by construction + map of the crowded center region.
	fmt.Println("\ncenter region (each cell shows the channel of its densest tower):")
	printMap(towers, colors, world)
}

// greedyChannel picks the lowest channel unused by v's already-assigned
// neighbors.
func greedyChannel(g *graph.G, colors []int, v int) int {
	used := map[int]bool{}
	for _, u := range g.Neighbors(v) {
		if colors[u] >= 0 {
			used[colors[u]] = true
		}
	}
	c := 0
	for used[c] {
		c++
	}
	return c
}

// interferenceGraph connects towers within the interference radius,
// dropping the longest links of overloaded towers so the degree stays
// within the available spectrum budget.
func interferenceGraph(towers []tower, radius float64, maxDeg int) *graph.G {
	n := len(towers)
	type link struct {
		u, v int
		d    float64
	}
	var links []link
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			dx := towers[u].x - towers[v].x
			dy := towers[u].y - towers[v].y
			if d := math.Hypot(dx, dy); d <= radius {
				links = append(links, link{u, v, d})
			}
		}
	}
	// Strongest (shortest) interference first; skip links that would push a
	// tower over the degree budget.
	for i := 1; i < len(links); i++ {
		for j := i; j > 0 && links[j].d < links[j-1].d; j-- {
			links[j], links[j-1] = links[j-1], links[j]
		}
	}
	g := graph.New(n)
	for _, l := range links {
		if g.Deg(l.u) < maxDeg && g.Deg(l.v) < maxDeg {
			g.MustEdge(l.u, l.v)
		}
	}
	return g
}

// printMap renders a coarse grid of the central third of the world; each
// cell shows the channel digit of one tower inside it (or '.' if empty).
func printMap(towers []tower, colors []int, world float64) {
	const cells = 24
	lo, hi := world/3, 2*world/3
	grid := make([][]byte, cells)
	for r := range grid {
		grid[r] = make([]byte, cells)
		for c := range grid[r] {
			grid[r][c] = '.'
		}
	}
	for i, t := range towers {
		if t.x < lo || t.x >= hi || t.y < lo || t.y >= hi {
			continue
		}
		r := int((t.y - lo) / (hi - lo) * cells)
		c := int((t.x - lo) / (hi - lo) * cells)
		grid[r][c] = byte('0' + colors[i]%10)
	}
	for _, row := range grid {
		fmt.Printf("  %s\n", row)
	}
}
