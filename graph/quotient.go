package graph

// Quotient builds a "virtual" graph over groups of nodes: one virtual node
// per group; two groups are adjacent iff they share a node of g or are
// joined by an edge of g. This is exactly the construction of the virtual
// graph G_DCC in phase (1) of the randomized algorithm, and of cluster
// graphs in network decompositions.
//
// groups may overlap. The returned graph has len(groups) nodes.
func Quotient(g *G, groups [][]int) *G {
	q := New(len(groups))
	owner := make(map[int][]int) // node -> group indices containing it
	for gi, grp := range groups {
		for _, v := range grp {
			owner[v] = append(owner[v], gi)
		}
	}
	addEdge := func(a, b int) {
		if a != b && !q.HasEdge(a, b) {
			q.MustEdge(a, b)
		}
	}
	// Shared nodes.
	for _, gis := range owner {
		for i := 0; i < len(gis); i++ {
			for j := i + 1; j < len(gis); j++ {
				addEdge(gis[i], gis[j])
			}
		}
	}
	// Edges of g between groups.
	for _, e := range g.Edges() {
		for _, a := range owner[e[0]] {
			for _, b := range owner[e[1]] {
				addEdge(a, b)
			}
		}
	}
	return q
}
