package graph

// BFSResult holds the outcome of a breadth-first search from a root.
type BFSResult struct {
	Root   int
	Dist   []int // Dist[v] = hop distance from Root, -1 if unreachable
	Parent []int // Parent[v] in the BFS tree, -1 for root/unreachable
	Order  []int // visit order
}

// BFS runs a breadth-first search from root over the whole graph.
func (g *G) BFS(root int) *BFSResult {
	return g.BFSLimited(root, -1)
}

// BFSLimited runs BFS from root up to the given radius (hops); radius < 0
// means unbounded.
func (g *G) BFSLimited(root, radius int) *BFSResult {
	res := &BFSResult{
		Root:   root,
		Dist:   make([]int, g.N()),
		Parent: make([]int, g.N()),
	}
	for i := range res.Dist {
		res.Dist[i] = -1
		res.Parent[i] = -1
	}
	res.Dist[root] = 0
	queue := []int{root}
	res.Order = append(res.Order, root)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if radius >= 0 && res.Dist[v] == radius {
			continue
		}
		for _, w := range g.adj[v] {
			if res.Dist[w] < 0 {
				res.Dist[w] = res.Dist[v] + 1
				res.Parent[w] = v
				res.Order = append(res.Order, w)
				queue = append(queue, w)
			}
		}
	}
	return res
}

// Ball returns the set of nodes at distance <= r from v (including v),
// in BFS order.
func (g *G) Ball(v, r int) []int {
	res := g.BFSLimited(v, r)
	return res.Order
}

// MultiSourceDist returns, for every node, the distance to the nearest
// source (-1 if unreachable) and the ID of that nearest source. Among the
// sources at minimum distance, nearest[v] is the one listed first in
// sources; duplicate sources are ignored.
func (g *G) MultiSourceDist(sources []int) (dist, nearest []int) {
	dist = make([]int, g.N())
	nearest = make([]int, g.N())
	for i := range dist {
		dist[i] = -1
		nearest[i] = -1
	}
	queue := make([]int, 0, len(sources))
	for _, s := range sources {
		if dist[s] == 0 && nearest[s] >= 0 {
			continue // duplicate source
		}
		dist[s] = 0
		nearest[s] = s
		queue = append(queue, s)
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.adj[v] {
			if dist[w] < 0 {
				dist[w] = dist[v] + 1
				nearest[w] = nearest[v]
				queue = append(queue, w)
			}
		}
	}
	return dist, nearest
}

// ConnectedComponents returns the component ID of every node and the number
// of components. Isolated nodes form their own components.
func (g *G) ConnectedComponents() (comp []int, count int) {
	comp = make([]int, g.N())
	for i := range comp {
		comp[i] = -1
	}
	for v := range comp {
		if comp[v] >= 0 {
			continue
		}
		comp[v] = count
		queue := []int{v}
		for len(queue) > 0 {
			x := queue[0]
			queue = queue[1:]
			for _, w := range g.adj[x] {
				if comp[w] < 0 {
					comp[w] = count
					queue = append(queue, w)
				}
			}
		}
		count++
	}
	return comp, count
}

// IsConnected reports whether g is connected (true for the empty and the
// single-node graph).
func (g *G) IsConnected() bool {
	if g.N() <= 1 {
		return true
	}
	_, c := g.ConnectedComponents()
	return c == 1
}

// Diameter returns the largest eccentricity over all nodes; -1 if the graph
// is disconnected or empty. O(N·M) — intended for small graphs and tests.
func (g *G) Diameter() int {
	if g.N() == 0 {
		return -1
	}
	d := 0
	for v := 0; v < g.N(); v++ {
		res := g.BFS(v)
		for _, u := range res.Order {
			if res.Dist[u] > d {
				d = res.Dist[u]
			}
		}
		if len(res.Order) != g.N() {
			return -1
		}
	}
	return d
}

// Radius returns min over nodes of eccentricity; -1 if disconnected/empty.
func (g *G) Radius() int {
	if g.N() == 0 {
		return -1
	}
	best := -1
	for v := 0; v < g.N(); v++ {
		res := g.BFS(v)
		if len(res.Order) != g.N() {
			return -1
		}
		ecc := 0
		for _, u := range res.Order {
			if res.Dist[u] > ecc {
				ecc = res.Dist[u]
			}
		}
		if best < 0 || ecc < best {
			best = ecc
		}
	}
	return best
}

// Girth returns the length of a shortest cycle, or -1 if the graph is a
// forest. O(N·M) BFS-based computation.
func (g *G) Girth() int {
	best := -1
	for v := 0; v < g.N(); v++ {
		dist := make([]int, g.N())
		par := make([]int, g.N())
		for i := range dist {
			dist[i] = -1
			par[i] = -1
		}
		dist[v] = 0
		queue := []int{v}
		for len(queue) > 0 {
			x := queue[0]
			queue = queue[1:]
			for _, w := range g.adj[x] {
				if dist[w] < 0 {
					dist[w] = dist[x] + 1
					par[w] = x
					queue = append(queue, w)
				} else if par[x] != w {
					// Non-tree edge: cycle through v of length
					// dist[x]+dist[w]+1 (an upper bound on the girth via v).
					if c := dist[x] + dist[w] + 1; best < 0 || c < best {
						best = c
					}
				}
			}
		}
	}
	return best
}
