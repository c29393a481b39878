package gallai

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"deltacolor/graph"
	"deltacolor/graph/gen"
)

// TestSelectDCCsDistributedAgreesWithCentral: the message-passing form
// must find the same DCC selection as the central shortcut, node by node
// (same owner structure up to DCC index renumbering, same DCC node sets).
func TestSelectDCCsDistributedAgreesWithCentral(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cases := []struct {
		name string
		g    *graph.G
		r    int
	}{
		{"torus 6x6", gen.Torus(6, 6), 2},
		{"hypercube d=3", gen.Hypercube(3), 2},
		{"random 4-regular", gen.MustRandomRegular(rng, 64, 4), 2},
		{"petersen", gen.Petersen(), 3},
		{"clique chain (no DCCs)", gen.CliqueChain(4, 6), 2},
		{"random tree (no DCCs)", gen.RandomTree(rng, 48), 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cd, cOwner, _ := SelectDCCs(tc.g, tc.r)
			dd, dOwner, rounds := SelectDCCsDistributed(tc.g, tc.r)

			// Node-level agreement on EXISTENCE: a node finds a DCC with
			// global knowledge iff it finds one from its gathered ball.
			// The specific DCC may differ (FindDCC tie-breaks by traversal
			// order, which the ID compaction permutes), so we check the
			// distributed choice's validity instead of set equality.
			for v := 0; v < tc.g.N(); v++ {
				co, do := cOwner[v], dOwner[v]
				if (co < 0) != (do < 0) {
					t.Fatalf("node %d: central owner %d, distributed %d", v, co, do)
				}
				if do < 0 {
					continue
				}
				d := dd[do]
				if !IsDCCSet(tc.g, d) {
					t.Fatalf("node %d: distributed selection %v is not a DCC in G", v, d)
				}
				if rad := SetRadius(tc.g, d); rad > tc.r {
					t.Fatalf("node %d: distributed DCC radius %d > r=%d", v, rad, tc.r)
				}
			}
			_ = cd
			if rounds <= 0 && len(dd) > 0 {
				t.Fatalf("distributed run charged %d rounds", rounds)
			}
		})
	}
}

// selectDCCsFromCentralBalls is the reference for SelectDCCsDistributed:
// every node's radius-2r ball is read off the graph by BFS instead of
// gathered by message passing (complete adjacency below distance 2r, none
// at 2r, exactly what flooding delivers), rebuilt with IDs compacted in
// sorted order and edges inserted in sorted-ID, port order, and searched
// with FindDCC at the center.
func selectDCCsFromCentralBalls(g *graph.G, r int) (dccs [][]int, owner []int) {
	owner = make([]int, g.N())
	seen := map[string]int{}
	for v := range owner {
		owner[v] = -1
		bfs := g.BFSLimited(v, 2*r)
		ids := slices.Sorted(slices.Values(bfs.Order))
		idx := make(map[int]int, len(ids))
		for i, u := range ids {
			idx[u] = i
		}
		sub := graph.New(len(ids))
		for i, u := range ids {
			if bfs.Dist[u] == 2*r {
				continue
			}
			for _, w := range g.Neighbors(u) {
				if j, ok := idx[w]; ok && i < j && !sub.HasEdge(i, j) {
					sub.MustEdge(i, j)
				}
			}
		}
		d := mapBack(FindDCC(sub, idx[v], r), ids)
		if d == nil {
			continue
		}
		di, ok := seen[dccKey(d)]
		if !ok {
			di = len(dccs)
			seen[dccKey(d)] = di
			dccs = append(dccs, d)
		}
		owner[v] = di
	}
	return dccs, owner
}

// TestSelectDCCsDistributedMatchesCentralBalls is the byte-identity pin
// for the message-passing form: against the central-ball reference it
// must return the exact same DCC sets and owner array — not merely
// owner-existence agreement — and charge exactly the 2r gather rounds.
func TestSelectDCCsDistributedMatchesCentralBalls(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cases := []struct {
		name string
		g    *graph.G
		r    int
	}{
		{"torus 6x6", gen.Torus(6, 6), 2},
		{"hypercube d=3", gen.Hypercube(3), 2},
		{"random 4-regular", gen.MustRandomRegular(rng, 64, 4), 2},
		{"petersen", gen.Petersen(), 3},
		{"random tree", gen.RandomTree(rng, 48), 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dd, dOwner, rounds := SelectDCCsDistributed(tc.g, tc.r)
			wd, wOwner := selectDCCsFromCentralBalls(tc.g, tc.r)
			if rounds != 2*tc.r {
				t.Fatalf("rounds: distributed %d, want %d", rounds, 2*tc.r)
			}
			if !reflect.DeepEqual(dd, wd) {
				t.Fatalf("DCC sets diverge:\ndistributed %v\ncentral     %v", dd, wd)
			}
			if !reflect.DeepEqual(dOwner, wOwner) {
				t.Fatalf("owners diverge:\ndistributed %v\ncentral     %v", dOwner, wOwner)
			}
		})
	}
}
