// Package graph provides the undirected-graph substrate used by every
// algorithm in this repository: adjacency storage, traversal, biconnected
// components, graph powers, and the structural predicates (clique, odd
// cycle, nice graph) that the Δ-coloring theorems are stated in terms of.
//
// Nodes are identified by dense integer IDs in [0, N). Graphs are simple
// (no self-loops, no parallel edges) and undirected.
package graph

import (
	"errors"
	"fmt"
	"sort"
)

// ErrEdgeExists is returned by AddEdge when the edge is already present.
var ErrEdgeExists = errors.New("edge already exists")

// ErrSelfLoop is returned by AddEdge for a self-loop.
var ErrSelfLoop = errors.New("self-loops are not allowed")

// ErrNoEdge is returned by RemoveEdge when the edge is absent.
var ErrNoEdge = errors.New("edge does not exist")

// G is a simple undirected graph with dense node IDs.
//
// The zero value is an empty graph with no nodes; use New to pre-allocate.
type G struct {
	adj [][]int
	m   int
}

// New returns an empty graph on n isolated nodes.
func New(n int) *G {
	return &G{adj: make([][]int, n)}
}

// N returns the number of nodes.
func (g *G) N() int { return len(g.adj) }

// M returns the number of edges.
func (g *G) M() int { return g.m }

// Deg returns the degree of node v.
func (g *G) Deg(v int) int { return len(g.adj[v]) }

// Neighbors returns the adjacency slice of v. Callers must not mutate it.
func (g *G) Neighbors(v int) []int { return g.adj[v] }

// HasEdge reports whether {u, v} is an edge.
func (g *G) HasEdge(u, v int) bool {
	// Scan the smaller adjacency list.
	a, b := u, v
	if len(g.adj[a]) > len(g.adj[b]) {
		a, b = b, a
	}
	for _, w := range g.adj[a] {
		if w == b {
			return true
		}
	}
	return false
}

// AddEdge inserts the undirected edge {u, v}.
func (g *G) AddEdge(u, v int) error {
	if u == v {
		return fmt.Errorf("add edge (%d,%d): %w", u, v, ErrSelfLoop)
	}
	if u < 0 || v < 0 || u >= g.N() || v >= g.N() {
		return fmt.Errorf("add edge (%d,%d): node out of range [0,%d)", u, v, g.N())
	}
	if g.HasEdge(u, v) {
		return fmt.Errorf("add edge (%d,%d): %w", u, v, ErrEdgeExists)
	}
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
	g.m++
	return nil
}

// MustEdge is AddEdge for construction code with statically valid inputs;
// it panics on error. Intended for tests and generators.
func (g *G) MustEdge(u, v int) {
	if err := g.AddEdge(u, v); err != nil {
		panic(err)
	}
}

// RemoveEdge deletes the undirected edge {u, v}, preserving the relative
// order of the remaining entries in both adjacency lists (the LOCAL
// runtime's port numbering is defined by adjacency order, so removal must
// not permute surviving ports).
func (g *G) RemoveEdge(u, v int) error {
	if u < 0 || v < 0 || u >= g.N() || v >= g.N() {
		return fmt.Errorf("remove edge (%d,%d): node out of range [0,%d)", u, v, g.N())
	}
	pu, pv := -1, -1
	for p, w := range g.adj[u] {
		if w == v {
			pu = p
			break
		}
	}
	if pu < 0 {
		return fmt.Errorf("remove edge (%d,%d): %w", u, v, ErrNoEdge)
	}
	for p, w := range g.adj[v] {
		if w == u {
			pv = p
			break
		}
	}
	g.adj[u] = append(g.adj[u][:pu], g.adj[u][pu+1:]...)
	g.adj[v] = append(g.adj[v][:pv], g.adj[v][pv+1:]...)
	g.m--
	return nil
}

// AddNode appends a new isolated node and returns its ID (the new N-1).
func (g *G) AddNode() int {
	g.adj = append(g.adj, nil)
	return len(g.adj) - 1
}

// FromAdjacency adopts a prebuilt adjacency structure in O(n + Σ deg),
// bypassing the per-edge duplicate scan of AddEdge. The caller guarantees
// the lists describe a simple undirected graph (symmetric, no duplicate
// entries); only node ranges, self-loops and degree-sum parity are
// verified. Intended for bulk constructions that already deduplicate,
// such as quotient networks built from port tables.
func FromAdjacency(adj [][]int) (*G, error) {
	n := len(adj)
	sum := 0
	for v, nbrs := range adj {
		for _, u := range nbrs {
			if u == v {
				return nil, fmt.Errorf("from adjacency: node %d: %w", v, ErrSelfLoop)
			}
			if u < 0 || u >= n {
				return nil, fmt.Errorf("from adjacency: node %d lists neighbor %d outside [0,%d)", v, u, n)
			}
		}
		sum += len(nbrs)
	}
	if sum%2 != 0 {
		return nil, fmt.Errorf("from adjacency: directed degree sum %d is odd (lists not symmetric)", sum)
	}
	return &G{adj: adj, m: sum / 2}, nil
}

// MaxDegree returns Δ(G), the maximum degree (0 for an empty graph).
func (g *G) MaxDegree() int {
	d := 0
	for v := range g.adj {
		if len(g.adj[v]) > d {
			d = len(g.adj[v])
		}
	}
	return d
}

// MinDegree returns the minimum degree (0 for an empty graph).
func (g *G) MinDegree() int {
	if g.N() == 0 {
		return 0
	}
	d := len(g.adj[0])
	for v := range g.adj {
		if len(g.adj[v]) < d {
			d = len(g.adj[v])
		}
	}
	return d
}

// Clone returns a deep copy of g.
func (g *G) Clone() *G {
	c := &G{adj: make([][]int, len(g.adj)), m: g.m}
	for v, nbrs := range g.adj {
		c.adj[v] = append([]int(nil), nbrs...)
	}
	return c
}

// Edges returns all edges as (u, v) pairs with u < v, sorted.
func (g *G) Edges() [][2]int {
	es := make([][2]int, 0, g.m)
	for u, nbrs := range g.adj {
		for _, v := range nbrs {
			if u < v {
				es = append(es, [2]int{u, v})
			}
		}
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i][0] != es[j][0] {
			return es[i][0] < es[j][0]
		}
		return es[i][1] < es[j][1]
	})
	return es
}

// InducedSubgraph returns the node-induced subgraph on nodes (in the given
// order) plus the mapping from new IDs to original IDs. Duplicate nodes in
// the input are an error.
func (g *G) InducedSubgraph(nodes []int) (*G, []int, error) {
	idx := make(map[int]int, len(nodes))
	for i, v := range nodes {
		if _, dup := idx[v]; dup {
			return nil, nil, fmt.Errorf("induced subgraph: duplicate node %d", v)
		}
		idx[v] = i
	}
	sub := New(len(nodes))
	for i, v := range nodes {
		for _, w := range g.adj[v] {
			if j, ok := idx[w]; ok && i < j {
				if err := sub.AddEdge(i, j); err != nil {
					return nil, nil, err
				}
			}
		}
	}
	orig := append([]int(nil), nodes...)
	return sub, orig, nil
}
