package gallai

import (
	"fmt"
	"slices"
	"sort"

	"deltacolor/graph"
)

// BruteListColor finds an exact proper list coloring of the subgraph
// induced by nodes via backtracking with a most-constrained-first
// heuristic. lists[i] holds the allowed colors of nodes[i]; the result is
// aligned with nodes the same way. It returns an error when no coloring
// exists.
//
// This is phase (9)/(5)'s "brute force each component" for DCCs and free
// nodes: by Theorem 8 a DCC always admits a coloring for deg-sized lists,
// so for DCC inputs the error path indicates a caller bug.
func BruteListColor(g *graph.G, nodes []int, lists [][]int) ([]int, error) {
	if len(lists) != len(nodes) {
		return nil, fmt.Errorf("brute list color: %d lists for %d nodes", len(lists), len(nodes))
	}
	var s induced
	if !s.buildSet(g, nodes) {
		return nil, fmt.Errorf("brute list color: a node is listed twice")
	}
	// Order positions by ascending list slack (|L| - deg), then by degree
	// descending: most constrained first.
	n := len(nodes)
	deg := func(i int) int { return int(s.off[i+1] - s.off[i]) }
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		sa := len(lists[order[a]]) - deg(order[a])
		sb := len(lists[order[b]]) - deg(order[b])
		if sa != sb {
			return sa < sb
		}
		return deg(order[a]) > deg(order[b])
	})
	colors := slices.Repeat([]int{-1}, n)
	if !s.bruteRec(order, lists, colors) {
		return nil, fmt.Errorf("brute list color: no proper list coloring exists for %d nodes", n)
	}
	return colors, nil
}

// bruteRec colors the positions order[0], order[1], ... in turn, each with
// the first list color no colored neighbor holds, backtracking on a dead
// end.
func (s *induced) bruteRec(order []int, lists [][]int, colors []int) bool {
	if len(order) == 0 {
		return true
	}
	v := order[0]
	for _, c := range lists[v] {
		ok := true
		for _, u := range s.nbr[s.off[v]:s.off[v+1]] {
			if colors[u] == c {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		colors[v] = c
		if s.bruteRec(order[1:], lists, colors) {
			return true
		}
		colors[v] = -1
	}
	return false
}

// DegreeLists builds the canonical degree-choosability lists for a
// component against a partial coloring of the rest of the graph: lists[i]
// is {0..delta-1} minus the colors of nodes[i]'s already-colored
// neighbors outside the component. For a DCC these lists have size >= deg
// within the component, so a coloring exists by Theorem 8.
func DegreeLists(g *graph.G, nodes []int, partial []int, delta int) [][]int {
	in := slices.Sorted(slices.Values(nodes))
	lists := make([][]int, len(nodes))
	for i, v := range nodes {
		l := make([]int, delta)
		for c := range l {
			l[c] = c
		}
		for _, u := range g.Neighbors(v) {
			if c := partial[u]; c >= 0 && c < delta {
				if _, inComp := slices.BinarySearch(in, u); !inComp {
					l[c] = -1
				}
			}
		}
		lists[i] = slices.DeleteFunc(l, func(c int) bool { return c < 0 })
	}
	return lists
}
