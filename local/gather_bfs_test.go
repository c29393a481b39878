package local

import (
	"slices"
	"testing"

	"deltacolor/graph"
)

// TestGatherBallMatchesBFS is the ground-truth property test for ball
// gathering: the ball gathered in t rounds must hold exactly the nodes at
// BFS distance <= t, center first and each once, with complete adjacency
// in port order for every node at distance < t (its adjacency had t-1
// rounds to travel) and only the bare self-report (nil adjacency) for
// nodes at distance exactly t. A radius-0 ball is the center alone, with
// an empty adjacency. Gathering takes exactly t rounds.
func TestGatherBallMatchesBFS(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.G
	}{
		{"path-17", pathGraph(17)},
		{"cycle-24", cycleGraph(24)},
		{"rand-40", randomGraph(40, 0.05, 1)},
		{"rand-60", randomGraph(60, 0.08, 2)},
		{"rand-50", randomGraph(50, 0.15, 3)},
		{"rand-50-sparse", randomGraph(50, 0.1, 7)},
		{"rand-30", randomGraph(30, 0.5, 4)},
		{"rand-dense-30", randomGraph(30, 0.4, 8)},
		{"isolated", isolatedGraph()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for radius := 0; radius <= 4; radius++ {
				net := NewNetwork(tc.g, 1)
				net.setShards(4)
				balls := GatherStepped(net, radius)
				if net.Rounds() != radius {
					t.Fatalf("t=%d: rounds=%d", radius, net.Rounds())
				}
				for v := 0; v < tc.g.N(); v++ {
					assertBallMatchesBFS(t, tc.g, v, radius, balls[v])
				}
			}
		})
	}
}

// TestGatherSteppedNilOnlyAtFrontier pins the nil-versus-empty contract
// of Ball.Adj, which the slices.Equal comparison in the BFS check cannot
// see: nil means "known only from a self-report" and belongs exactly to
// the nodes at distance Radius, while every node inside the ball carries
// a non-nil list of its full degree — empty, not nil, for an isolated
// node (and for the lone center of a radius-0 ball). The inputs hold isolated nodes, path ends and components that
// the balls outgrow before the last round; the gather must still take
// exactly t rounds on them.
func TestGatherSteppedNilOnlyAtFrontier(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.G
	}{
		{"path-17", pathGraph(17)},
		{"cycle-24", cycleGraph(24)},
		{"rand-50", randomGraph(50, 0.1, 7)},
		{"rand-dense-30", randomGraph(30, 0.4, 8)},
		{"isolated", isolatedGraph()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for radius := 0; radius <= 4; radius++ {
				net := NewNetwork(tc.g, 1)
				balls := GatherStepped(net, radius)
				if net.Rounds() != radius {
					t.Fatalf("t=%d: rounds=%d", radius, net.Rounds())
				}
				for v, ball := range balls {
					dist := tc.g.BFSLimited(v, radius).Dist
					for i, id := range ball.IDs {
						u, adj := int(id), ball.Adj[i]
						want := len(tc.g.Neighbors(u))
						switch {
						case radius == 0:
							want = 0 // the center alone, adjacency empty
						case dist[u] == radius:
							if adj != nil {
								t.Fatalf("t=%d center=%d: frontier node %d has adjacency %v, want nil", radius, v, u, adj)
							}
							continue
						}
						if adj == nil || len(adj) != want {
							t.Fatalf("t=%d center=%d: inner node %d has adjacency %#v, want a non-nil list of length %d",
								radius, v, u, adj, want)
						}
					}
				}
			}
		})
	}
}

// isolatedGraph is a 12-node graph of isolated nodes, a 3-node path and
// a single edge: balls of every radius saturate their component at once.
func isolatedGraph() *graph.G {
	g := graph.New(12)
	g.MustEdge(0, 1)
	g.MustEdge(1, 2)
	g.MustEdge(4, 5)
	return g
}

func assertBallMatchesBFS(t *testing.T, g *graph.G, v, radius int, ball *Ball) {
	t.Helper()
	bfs := g.BFSLimited(v, radius)
	if ball.Center != v || ball.Radius != radius {
		t.Fatalf("ball center/radius = %d/%d, want %d/%d", ball.Center, ball.Radius, v, radius)
	}
	if len(ball.IDs) == 0 || int(ball.IDs[0]) != v {
		t.Fatalf("t=%d center=%d: IDs = %v, want the center first", radius, v, ball.IDs)
	}
	if len(ball.Adj) != len(ball.IDs) {
		t.Fatalf("t=%d center=%d: %d adjacency lists for %d IDs", radius, v, len(ball.Adj), len(ball.IDs))
	}
	if len(ball.IDs) != len(bfs.Order) {
		t.Fatalf("t=%d center=%d: knows %d nodes, BFS ball has %d", radius, v, len(ball.IDs), len(bfs.Order))
	}
	seen := make(map[int]bool, len(ball.IDs))
	for i, id := range ball.IDs {
		u, adj := int(id), ball.Adj[i]
		if seen[u] {
			t.Fatalf("t=%d center=%d: node %d listed twice in %v", radius, v, u, ball.IDs)
		}
		seen[u] = true
		switch d := bfs.Dist[u]; {
		case d < 0:
			t.Fatalf("center %d learned %d outside its %d-ball", v, u, radius)
		case radius == 0:
			if adj == nil || len(adj) != 0 {
				t.Fatalf("center %d: radius-0 adjacency %v, want empty", v, adj)
			}
		case d < radius:
			got := make([]int, len(adj))
			for j, w := range adj {
				got[j] = int(w)
			}
			if !slices.Equal(got, g.Neighbors(u)) {
				t.Fatalf("center %d: adjacency of %d (dist %d) = %v, want port order %v", v, u, d, got, g.Neighbors(u))
			}
		default: // d == radius: only the self-report made it
			if adj != nil {
				t.Fatalf("center %d: node %d at distance %d should have nil adjacency, got %v", v, u, radius, adj)
			}
		}
	}
}
