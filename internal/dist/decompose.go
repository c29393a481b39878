package dist

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"

	"deltacolor/graph"
)

// Decomposition is a low-diameter network decomposition of G[active]: a
// partition into connected clusters of bounded radius, plus a proper
// coloring of the cluster graph so that same-colored clusters can run
// internal computations simultaneously without interference.
type Decomposition struct {
	Cluster      []int // Cluster[v]: cluster index of node v, -1 when inactive
	Centers      []int // Centers[ci]: the node the cluster grew from
	ClusterColor []int // ClusterColor[ci]: color class of the cluster
	NumColors    int   // number of color classes
	MaxRadius    int   // max over clusters of the radius from the center
	Rounds       int   // simulated LOCAL rounds the construction costs
}

// Decompose builds the decomposition with Miller–Peng–Xu exponential
// shifts: every active node u draws δ_u ~ Exp(beta) and node v joins the
// cluster of the u minimizing dist(u, v) - δ_u (distances within
// G[active]). With beta = Θ(1/log n) the cluster radii are O(log n / beta
// · beta) = O(log n) in expectation and the clusters are connected by the
// shortest-path monotonicity of the shifted distances. The cluster graph
// is then colored greedily. active == nil means all nodes participate.
func Decompose(g *graph.G, active []bool, beta float64, seed int64) *Decomposition {
	n := g.N()
	if beta <= 0 || beta > 1 {
		beta = 0.5
	}
	rng := rand.New(rand.NewSource(seed*7919 + 17))

	// Shifts, capped at the w.h.p. maximum so a single outlier draw cannot
	// blow up the simulated round count; capping is just another valid draw.
	shiftCap := (2*math.Log(float64(n+2)) + 4) / beta
	shift := make([]float64, n)
	maxShift := 0.0
	for v := 0; v < n; v++ {
		if active != nil && !active[v] {
			continue
		}
		s := rng.ExpFloat64() / beta
		if s > shiftCap {
			s = shiftCap
		}
		shift[v] = s
		if s > maxShift {
			maxShift = s
		}
	}

	// Multi-source Dijkstra over G[active] with source potentials -δ_u:
	// each node settles with the center of smallest shifted distance
	// (ties by center ID), and inherits it from the neighbor that relaxed
	// it — which makes every cluster connected by construction.
	center := make([]int, n)
	hops := make([]int, n)
	for v := range center {
		center[v] = -1
		hops[v] = -1
	}
	pq := &shiftHeap{}
	for v := 0; v < n; v++ {
		if active != nil && !active[v] {
			continue
		}
		heap.Push(pq, shiftItem{key: -shift[v], center: v, node: v, hops: 0})
	}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(shiftItem)
		if center[it.node] >= 0 {
			continue
		}
		center[it.node] = it.center
		hops[it.node] = it.hops
		for _, u := range g.Neighbors(it.node) {
			if active != nil && !active[u] {
				continue
			}
			if center[u] < 0 {
				heap.Push(pq, shiftItem{key: it.key + 1, center: it.center, node: u, hops: it.hops + 1})
			}
		}
	}

	// Renumber winning centers into dense cluster indices.
	clusterOf := make(map[int]int)
	var centers []int
	cluster := make([]int, n)
	maxRadius := 0
	for v := 0; v < n; v++ {
		if center[v] < 0 {
			cluster[v] = -1
			continue
		}
		ci, ok := clusterOf[center[v]]
		if !ok {
			ci = len(centers)
			clusterOf[center[v]] = ci
			centers = append(centers, center[v])
		}
		cluster[v] = ci
		if hops[v] > maxRadius {
			maxRadius = hops[v]
		}
	}

	// Greedy proper coloring of the cluster graph.
	adj := make([]map[int]bool, len(centers))
	for i := range adj {
		adj[i] = make(map[int]bool)
	}
	for u, a := range cluster {
		for _, v := range g.Neighbors(u) {
			if b := cluster[v]; a >= 0 && b >= 0 && a != b {
				adj[a][b] = true
			}
		}
	}
	colors := make([]int, len(centers))
	numColors := 0
	for ci := range colors {
		used := make(map[int]bool)
		for cj := range adj[ci] {
			if cj < ci {
				used[colors[cj]] = true
			}
		}
		c := 0
		for used[c] {
			c++
		}
		colors[ci] = c
		if c+1 > numColors {
			numColors = c + 1
		}
	}

	// Simulated cost: the shifted BFS runs for ceil(max δ) + MaxRadius
	// rounds (delayed starts), plus one round to agree on cluster colors
	// along the cluster tree.
	rounds := int(math.Ceil(maxShift)) + maxRadius + 1
	return &Decomposition{
		Cluster:      cluster,
		Centers:      centers,
		ClusterColor: colors,
		NumColors:    numColors,
		MaxRadius:    maxRadius,
		Rounds:       rounds,
	}
}

// shiftItem is a Dijkstra queue entry: shifted distance key, originating
// center and the node being relaxed.
type shiftItem struct {
	key    float64
	center int
	node   int
	hops   int
}

type shiftHeap []shiftItem

func (h shiftHeap) Len() int { return len(h) }
func (h shiftHeap) Less(i, j int) bool {
	if h[i].key != h[j].key {
		return h[i].key < h[j].key
	}
	return h[i].center < h[j].center
}
func (h shiftHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *shiftHeap) Push(x any)   { *h = append(*h, x.(shiftItem)) }
func (h *shiftHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// VerifyDecomposition checks the decomposition invariants the Theorem 21
// variant relies on: every active node sits in exactly one cluster, each
// cluster is connected within G[active] with its center inside and radius
// at most MaxRadius, and adjacent clusters have different colors drawn
// from [0, NumColors).
func VerifyDecomposition(g *graph.G, active []bool, dec *Decomposition) error {
	if dec == nil {
		return fmt.Errorf("decomposition: nil")
	}
	n := g.N()
	if len(dec.Cluster) != n {
		return fmt.Errorf("decomposition: %d cluster entries for %d nodes", len(dec.Cluster), n)
	}
	if len(dec.ClusterColor) != len(dec.Centers) {
		return fmt.Errorf("decomposition: %d colors for %d clusters", len(dec.ClusterColor), len(dec.Centers))
	}
	for ci, c := range dec.ClusterColor {
		if c < 0 || c >= dec.NumColors {
			return fmt.Errorf("decomposition: cluster %d color %d outside [0, %d)", ci, c, dec.NumColors)
		}
	}
	for v := 0; v < n; v++ {
		if active != nil && !active[v] {
			if dec.Cluster[v] != -1 {
				return fmt.Errorf("decomposition: inactive node %d assigned cluster %d", v, dec.Cluster[v])
			}
			continue
		}
		if dec.Cluster[v] < 0 || dec.Cluster[v] >= len(dec.Centers) {
			return fmt.Errorf("decomposition: node %d has cluster %d outside [0, %d)", v, dec.Cluster[v], len(dec.Centers))
		}
	}
	// Connectivity and radius: BFS from each center inside its own cluster.
	size := make([]int, len(dec.Centers))
	for v := 0; v < n; v++ {
		if dec.Cluster[v] >= 0 {
			size[dec.Cluster[v]]++
		}
	}
	for ci, c := range dec.Centers {
		if dec.Cluster[c] != ci {
			return fmt.Errorf("decomposition: center %d of cluster %d sits in cluster %d", c, ci, dec.Cluster[c])
		}
		depth := map[int]int{c: 0}
		queue := []int{c}
		maxDepth := 0
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, u := range g.Neighbors(v) {
				if dec.Cluster[u] != ci {
					continue
				}
				if _, seen := depth[u]; seen {
					continue
				}
				depth[u] = depth[v] + 1
				if depth[u] > maxDepth {
					maxDepth = depth[u]
				}
				queue = append(queue, u)
			}
		}
		if len(depth) != size[ci] {
			return fmt.Errorf("decomposition: cluster %d disconnected (%d of %d nodes reachable from center)", ci, len(depth), size[ci])
		}
		if maxDepth > dec.MaxRadius {
			return fmt.Errorf("decomposition: cluster %d radius %d exceeds MaxRadius %d", ci, maxDepth, dec.MaxRadius)
		}
	}
	sameColor := func(u, v int) bool {
		a, b := dec.Cluster[u], dec.Cluster[v]
		return a >= 0 && b >= 0 && a != b && dec.ClusterColor[a] == dec.ClusterColor[b]
	}
	for u := range n {
		if v := clashAbove(g, u, sameColor); v >= 0 {
			a, b := dec.Cluster[u], dec.Cluster[v]
			return fmt.Errorf("decomposition: adjacent clusters %d and %d share color %d", a, b, dec.ClusterColor[a])
		}
	}
	return nil
}
