package gallai

import (
	"slices"

	"deltacolor/graph"
	"deltacolor/local"
)

// SelectDCCsDistributed is the genuinely message-passing form of
// SelectDCCs: every node gathers its radius-2r ball through the LOCAL
// runtime (rounds of neighborhood flooding, the textbook "collect your
// ball then compute" LOCAL algorithm), reconstructs the induced subgraph
// locally, and runs the same FindDCC it would run with global knowledge.
//
// It must agree exactly with the central shortcut (SelectDCCs charges
// 2r rounds without executing the message passing); the test suite
// asserts that agreement. Use the central form in experiments — this
// form costs real memory (every node holds its ball) and exists to
// validate the shortcut and to exercise the runtime's gather primitive.
func SelectDCCsDistributed(g *graph.G, r int) (dccs [][]int, owner []int, rounds int) {
	n := g.N()
	net := local.NewNetwork(g, 1)
	balls := local.GatherStepped(net, 2*r)

	owner = make([]int, n)
	for v := range owner {
		owner[v] = -1
	}
	seen := map[string]int{}
	for v := 0; v < n; v++ {
		d := dccFromBall(balls[v], r)
		if d == nil {
			continue
		}
		key := dccKey(d)
		di, ok := seen[key]
		if !ok {
			di = len(dccs)
			seen[key] = di
			dccs = append(dccs, d)
		}
		owner[v] = di
	}
	return dccs, owner, net.Rounds()
}

// dccFromBall rebuilds the known subgraph of a gathered ball with IDs
// compacted and runs FindDCC at the center. Known adjacency covers every
// node the DCC search can touch (distance <= r plus one hop of slack).
// Entries are visited in sorted-ID order and adjacency stays in port
// order, so the reconstructed subgraph — and FindDCC's tie-breaking —
// does not depend on discovery order.
func dccFromBall(b *local.Ball, r int) []int {
	order := make([]int, len(b.IDs))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(x, y int) int { return int(b.IDs[x]) - int(b.IDs[y]) })
	ids := make([]int, len(order))
	idx := make(map[int32]int, len(order))
	for i, e := range order {
		ids[i] = int(b.IDs[e])
		idx[b.IDs[e]] = i
	}
	sub := graph.New(len(ids))
	for i, e := range order {
		iv := i
		for _, u := range b.Adj[e] {
			iu, ok := idx[u]
			if !ok || iv >= iu {
				continue
			}
			if !sub.HasEdge(iv, iu) {
				sub.MustEdge(iv, iu)
			}
		}
	}
	center, ok := idx[int32(b.Center)]
	if !ok {
		return nil
	}
	return mapBack(FindDCC(sub, center, r), ids)
}

// mapBack translates a compacted-ID DCC to external IDs; nil stays nil.
func mapBack(d []int, ids []int) []int {
	if d == nil {
		return nil
	}
	mapped := make([]int, len(d))
	for i, x := range d {
		mapped[i] = ids[x]
	}
	return mapped
}
