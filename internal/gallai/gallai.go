// Package gallai implements the graph-colorability machinery of Section 2
// of the paper: Gallai trees, degree-choosability (Theorem 8), detection of
// degree-choosable components (DCCs) of bounded radius, exact brute-force
// list coloring of small components, and the structural lemmas
// (unique BFS trees, neighborhood clique decomposition, BFS expansion) as
// executable checks.
package gallai

import (
	"slices"

	"deltacolor/graph"
)

// IsGallaiTree reports whether every block (maximal 2-connected component)
// of g is a clique or an odd cycle. By Theorem 8 [ERT79, Viz76] a connected
// graph is degree-choosable iff it is NOT a Gallai tree.
func IsGallaiTree(g *graph.G) bool {
	blocks, _ := g.BiconnectedComponents()
	for _, b := range blocks {
		if !BlockIsCliqueOrOddCycle(g, b) {
			return false
		}
	}
	return true
}

// BlockIsCliqueOrOddCycle classifies one block. Blocks are induced
// subgraphs (every edge of g between block nodes belongs to the block), so
// induced tests on the node set are sound.
func BlockIsCliqueOrOddCycle(g *graph.G, b graph.Block) bool {
	if len(b.Nodes) <= 2 {
		return true // single node or bridge edge = K1/K2
	}
	if g.IsCliqueSet(b.Nodes) {
		return true
	}
	isCycle, odd := g.IsInducedCycleSet(b.Nodes)
	return isCycle && odd
}

// IsDegreeChoosable reports whether every connected component of g is
// degree-choosable, i.e. admits a proper coloring for every list
// assignment with |L(v)| >= deg(v). A graph with any Gallai-tree component
// is not degree-choosable.
func IsDegreeChoosable(g *graph.G) bool {
	if g.N() == 0 {
		return false
	}
	comp, count := g.ConnectedComponents()
	byComp := make([][]int, count)
	for v, c := range comp {
		byComp[c] = append(byComp[c], v)
	}
	for _, nodes := range byComp {
		sub, _, err := g.InducedSubgraph(nodes)
		if err != nil {
			return false
		}
		if IsGallaiTree(sub) {
			return false
		}
	}
	return true
}

// IsDCCSet reports whether the given node set induces a degree-choosable
// component in g: 2-connected, neither a clique nor an (induced) odd cycle.
// A set listing a node twice is not a DCC.
func IsDCCSet(g *graph.G, nodes []int) bool {
	var s induced
	return s.buildSet(g, nodes) && s.isDCC()
}

// SetRadius returns the radius of the induced subgraph on nodes
// (-1 if empty, disconnected, or listing a node twice).
func SetRadius(g *graph.G, nodes []int) int {
	var s induced
	if !s.buildSet(g, nodes) {
		return -1
	}
	return s.radius()
}

// induced is the subgraph a node set induces, in compact form: set
// position i has neighbors nbr[off[i]:off[i+1]], also positions. The set
// predicates run on it, with dist and queue as BFS scratch.
type induced struct {
	off, nbr    []int32
	dist, queue []int32
}

// buildSet fills s with the subgraph of g induced by nodes; it reports
// false when nodes lists a node twice.
func (s *induced) buildSet(g *graph.G, nodes []int) bool {
	idx := make(map[int]int, len(nodes))
	for i, u := range nodes {
		if _, dup := idx[u]; dup {
			return false
		}
		idx[u] = i
	}
	s.off = append(s.off[:0], 0)
	s.nbr = s.nbr[:0]
	for _, u := range nodes {
		for _, w := range g.Neighbors(u) {
			if j, ok := idx[w]; ok {
				s.nbr = append(s.nbr, int32(j))
			}
		}
		s.off = append(s.off, int32(len(s.nbr)))
	}
	s.dist = slices.Grow(s.dist[:0], len(nodes))[:len(nodes)]
	return true
}

func (s *induced) size() int { return len(s.off) - 1 }

// bfs runs a BFS from position src that never enters position skip
// (-1: none) and returns how many positions it reached and the largest
// distance among them.
func (s *induced) bfs(src, skip int) (reached, ecc int) {
	for i := range s.dist {
		s.dist[i] = -1
	}
	s.dist[src] = 0
	q := append(s.queue[:0], int32(src))
	for h := 0; h < len(q); h++ {
		u := q[h]
		for _, w := range s.nbr[s.off[u]:s.off[u+1]] {
			if s.dist[w] < 0 && int(w) != skip {
				s.dist[w] = s.dist[u] + 1
				q = append(q, w)
			}
		}
	}
	s.queue = q
	return len(q), int(s.dist[q[len(q)-1]])
}

// radius returns the smallest eccentricity, or -1 if the set is empty or
// disconnected.
func (s *induced) radius() int {
	k := s.size()
	best := -1
	for v := 0; v < k; v++ {
		reached, ecc := s.bfs(v, -1)
		if reached != k {
			return -1
		}
		if best < 0 || ecc < best {
			best = ecc
		}
	}
	return best
}

// isDCC reports whether the set induces a DCC. On 3 nodes the only
// 2-connected graph is K3, so the smallest DCC is the 4-cycle.
func (s *induced) isDCC() bool {
	k := s.size()
	if k < 4 || len(s.nbr) == k*(k-1) {
		return false // too small, or a clique (len(nbr) is twice the edge count)
	}
	if k%2 == 1 {
		cycle := true
		for i := range k {
			cycle = cycle && s.off[i+1]-s.off[i] == 2
		}
		if cycle {
			return false // an odd cycle, or disconnected
		}
	}
	return s.biconnected()
}

// biconnected reports whether the set (of at least 3 nodes) is
// 2-connected: connected, with no node whose removal disconnects it.
func (s *induced) biconnected() bool {
	k := s.size()
	if reached, _ := s.bfs(0, -1); reached != k {
		return false
	}
	for cut := range k {
		src := 0
		if cut == 0 {
			src = 1
		}
		if reached, _ := s.bfs(src, cut); reached != k-1 {
			return false
		}
	}
	return true
}
