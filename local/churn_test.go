package local

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"deltacolor/graph"
)

// portProbe writes into outs, per node, the external IDs heard per port —
// which must equal the node's external adjacency order, the
// port-numbering contract churn has to preserve.
func portProbe(outs []string) Stepped[roundState[struct{}]] {
	return roundProgram(func(ctx *Ctx, _ *struct{}, round int) bool {
		if round == 0 {
			ctx.BroadcastInt(ctx.ID())
			return true
		}
		ids := make([]int, ctx.Degree())
		for p := range ids {
			v, ok := ctx.RecvInt(p)
			if !ok {
				v = -1
			}
			ids[p] = v
		}
		outs[ctx.ID()] = fmt.Sprint(ids)
		return false
	})
}

// checkPortsMatchGraph runs portProbe and asserts every node's port
// order equals its adjacency order in net.Graph().
func checkPortsMatchGraph(t *testing.T, net *Network) {
	t.Helper()
	g := net.Graph()
	outs := make([]string, g.N())
	RunStepped(net, portProbe(outs))
	for v := 0; v < g.N(); v++ {
		want := fmt.Sprint(append([]int{}, g.Neighbors(v)...))
		if outs[v] != want {
			t.Fatalf("node %d ports %v, want adjacency order %v", v, outs[v], want)
		}
	}
}

// floodHashProbe floods IDs for a few rounds and hashes what each node
// saw into out[ctx.ID()]; mutated and fresh networks must agree byte for
// byte.
func floodHashProbe(rounds int, out []int) Stepped[roundState[int]] {
	return roundProgram(func(ctx *Ctx, acc *int, round int) bool {
		if round == 0 {
			*acc = ctx.ID()
		}
		for p := 0; p < ctx.Degree(); p++ {
			if v, ok := ctx.RecvInt(p); ok {
				*acc = *acc*31 + v + p
			}
		}
		if round == rounds {
			out[ctx.ID()] = *acc
			return false
		}
		ctx.BroadcastInt(*acc & 0xffff)
		return true
	})
}

func TestChurnAddRemoveEdgeBasics(t *testing.T) {
	g := pathGraph(4)
	net := NewNetwork(g, 1)
	checkPortsMatchGraph(t, net)

	if err := net.AddEdge(0, 3); err != nil {
		t.Fatal(err)
	}
	if err := net.AddEdge(0, 3); !errors.Is(err, graph.ErrEdgeExists) {
		t.Fatalf("duplicate AddEdge: %v", err)
	}
	if err := net.AddEdge(2, 2); !errors.Is(err, graph.ErrSelfLoop) {
		t.Fatalf("self-loop AddEdge: %v", err)
	}
	if err := net.RemoveEdge(0, 2); !errors.Is(err, graph.ErrNoEdge) {
		t.Fatalf("missing RemoveEdge: %v", err)
	}
	if err := net.RemoveEdge(9, 0); err == nil {
		t.Fatal("out-of-range RemoveEdge accepted")
	}
	checkPortsMatchGraph(t, net)

	if err := net.RemoveEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if g.HasEdge(1, 2) {
		t.Fatal("edge survived RemoveEdge")
	}
	checkPortsMatchGraph(t, net)
}

func TestChurnAddNodeAndIsolate(t *testing.T) {
	net := NewNetwork(cycleGraph(5), 1)
	v := net.AddNode()
	if v != 5 || net.Graph().N() != 6 {
		t.Fatalf("AddNode returned %d, N=%d", v, net.Graph().N())
	}
	for _, u := range []int{0, 2, 4} {
		if err := net.AddEdge(v, u); err != nil {
			t.Fatal(err)
		}
	}
	checkPortsMatchGraph(t, net)

	removed, err := net.IsolateNode(2)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 3 || net.Graph().Deg(2) != 0 {
		t.Fatalf("IsolateNode removed %d edges, deg now %d", removed, net.Graph().Deg(2))
	}
	if _, err := net.IsolateNode(99); err == nil {
		t.Fatal("out-of-range IsolateNode accepted")
	}
	checkPortsMatchGraph(t, net)
}

// randomMutableGraph builds a connected graph with enough scattered
// labels that relabeling can kick in when asked.
func randomMutableGraph(rng *rand.Rand, n, extra int) *graph.G {
	g := graph.New(n)
	perm := rng.Perm(n)
	for i := 0; i+1 < n; i++ {
		g.MustEdge(perm[i], perm[i+1])
	}
	for k := 0; k < extra; k++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			g.MustEdge(u, v)
		}
	}
	return g
}

func TestChurnEquivalenceRandomScript(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 5; trial++ {
		g := randomMutableGraph(rng, 40, 30)
		net := NewNetwork(g.Clone(), 7)
		mirror := g.Clone()

		// Interleave mutations and runs so the lazy rebuild path (setup's
		// buildPorts) is exercised repeatedly mid-life.
		for burst := 0; burst < 3; burst++ {
			for op := 0; op < 12; op++ {
				switch rng.Intn(4) {
				case 0: // insert
					u, v := rng.Intn(mirror.N()), rng.Intn(mirror.N())
					if u == v || mirror.HasEdge(u, v) {
						continue
					}
					if err := net.AddEdge(u, v); err != nil {
						t.Fatal(err)
					}
					mirror.MustEdge(u, v)
				case 1: // delete a random existing edge
					es := mirror.Edges()
					if len(es) == 0 {
						continue
					}
					e := es[rng.Intn(len(es))]
					if err := net.RemoveEdge(e[0], e[1]); err != nil {
						t.Fatal(err)
					}
					if err := mirror.RemoveEdge(e[0], e[1]); err != nil {
						t.Fatal(err)
					}
				case 2: // add node wired to two anchors
					v := net.AddNode()
					if w := mirror.AddNode(); w != v {
						t.Fatalf("mirror AddNode %d != %d", w, v)
					}
					for _, u := range []int{rng.Intn(v), rng.Intn(v)} {
						if !mirror.HasEdge(v, u) {
							if err := net.AddEdge(v, u); err != nil {
								t.Fatal(err)
							}
							mirror.MustEdge(v, u)
						}
					}
				case 3: // isolate
					v := rng.Intn(mirror.N())
					if _, err := net.IsolateNode(v); err != nil {
						t.Fatal(err)
					}
					for _, u := range append([]int{}, mirror.Neighbors(v)...) {
						if err := mirror.RemoveEdge(v, u); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			// The mutated network must behave byte-identically to a fresh
			// network over the same mutated graph.
			if got, want := fmt.Sprint(net.Graph().Edges()), fmt.Sprint(mirror.Edges()); got != want {
				t.Fatalf("trial %d burst %d: graph drifted:\n got %s\nwant %s", trial, burst, got, want)
			}
			checkPortsMatchGraph(t, net)
			fresh := NewNetwork(mirror.Clone(), 7)
			a, b := make([]int, mirror.N()), make([]int, mirror.N())
			RunStepped(net, floodHashProbe(4, a))
			RunStepped(fresh, floodHashProbe(4, b))
			if net.Rounds() != fresh.Rounds() {
				t.Fatalf("trial %d burst %d: rounds %d != %d", trial, burst, net.Rounds(), fresh.Rounds())
			}
			for v := range a {
				if a[v] != b[v] {
					t.Fatalf("trial %d burst %d: node %d: mutated %v != fresh %v", trial, burst, v, a[v], b[v])
				}
			}
		}
	}
}

func TestChurnOnRelabeledNetwork(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomMutableGraph(rng, 64, 0) // shuffled path: relabeling always helps
	net := NewNetwork(g, 3)
	if !net.Relabeled() {
		t.Skip("relabeling not adopted for this graph shape")
	}
	if err := net.AddEdge(5, 60); err != nil {
		t.Fatal(err)
	}
	v := net.AddNode()
	if err := net.AddEdge(v, 5); err != nil {
		t.Fatal(err)
	}
	es := g.Edges()
	if err := net.RemoveEdge(es[0][0], es[0][1]); err != nil {
		t.Fatal(err)
	}
	checkPortsMatchGraph(t, net)
	if !net.Relabeled() {
		t.Fatal("relabel translation lost across churn")
	}
}

func TestChurnPreservesDeliveryAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomMutableGraph(rng, 300, 200)
	net := NewNetwork(g.Clone(), 11)
	for k := 0; k < 40; k++ {
		u, v := rng.Intn(g.N()), rng.Intn(g.N())
		if u != v && !net.Graph().HasEdge(u, v) {
			if err := net.AddEdge(u, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	net.SetWorkers(4)
	net.setBatch(32)
	a, b := make([]int, g.N()), make([]int, g.N())
	RunStepped(net, floodHashProbe(5, a))
	net.SetWorkers(1)
	RunStepped(net, floodHashProbe(5, b))
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("node %d differs across worker counts after churn", v)
		}
	}
}
