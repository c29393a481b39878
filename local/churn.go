// Graph churn on a live Network: edge and node insert/delete with
// incremental maintenance of the engine's port tables.
//
// The LOCAL runtime's internal state splits into two tiers. The
// per-topology tier — the [][]int port lists, the [][]int32 reverse-port
// lists, and the ext/int relabel translation (PR 5's boundary) — is
// maintained incrementally here at O(deg(u) + deg(v)) per mutation. The
// per-run tier — the flat directed-edge arrays (off/portsFlat/revFlat/
// slotFlat) and the message lanes carved out of them — is consolidated
// lazily: a mutation marks the network dirty and the next run's setup
// rebuilds the flat tables in one O(n + Σ deg) pass, the same order of
// work setup already spends clearing the lanes every run. A burst of k
// mutations therefore costs O(changed) per mutation plus one
// consolidation, not k full rebuilds.
//
// Port semantics under churn match construction: a node's port numbering
// is its external adjacency-list order. AddEdge appends the new neighbor
// as the highest port on both endpoints; RemoveEdge deletes the port and
// shifts the higher ports down, preserving relative order. A mutated
// network is indistinguishable from a fresh NewNetwork on the mutated
// graph except for the node relabeling (which is unobservable) — the
// churn equivalence tests pin exactly that.
//
// Mutations must not be issued during a run.
package local

import (
	"fmt"

	"deltacolor/graph"
)

// toInt translates an external node ID to its internal table index;
// identity when the network is not relabeled.
func (net *Network) toInt(v int) int {
	if net.intID == nil {
		return v
	}
	return int(net.intID[v])
}

// AddEdge inserts the undirected edge {u, v} (external IDs) into the
// underlying graph and the network's port tables. The new neighbor
// becomes the highest-numbered port on both endpoints. O(deg(u)+deg(v))
// via the duplicate check; the flat delivery tables are consolidated at
// the start of the next run.
func (net *Network) AddEdge(u, v int) error {
	if err := net.g.AddEdge(u, v); err != nil {
		return err
	}
	iu, iv := net.toInt(u), net.toInt(v)
	pu, pv := len(net.ports[iu]), len(net.ports[iv])
	if net.extID == nil {
		// Port lists alias the graph's adjacency; refetch the grown
		// headers.
		net.ports[iu] = net.g.Neighbors(u)
		net.ports[iv] = net.g.Neighbors(v)
	} else {
		// Capped views into the flat backing: append reallocates instead
		// of clobbering the neighbor list that follows.
		net.ports[iu] = append(net.ports[iu], iv)
		net.ports[iv] = append(net.ports[iv], iu)
	}
	net.rev[iu] = append(net.rev[iu], int32(pv))
	net.rev[iv] = append(net.rev[iv], int32(pu))
	net.dirty = true
	return nil
}

// RemoveEdge deletes the undirected edge {u, v} (external IDs) from the
// graph and the port tables. Surviving ports keep their relative order;
// ports above the removed one shift down by one on both endpoints, and
// the affected neighbors' reverse-port entries are patched in place.
// O(deg(u)+deg(v)).
func (net *Network) RemoveEdge(u, v int) error {
	if u < 0 || v < 0 || u >= net.g.N() || v >= net.g.N() {
		return fmt.Errorf("local: remove edge (%d,%d): node out of range [0,%d)", u, v, net.g.N())
	}
	iu, iv := net.toInt(u), net.toInt(v)
	pu, pv := -1, -1
	for p, w := range net.ports[iu] {
		if w == iv {
			pu = p
			break
		}
	}
	if pu < 0 {
		return fmt.Errorf("local: remove edge (%d,%d): %w", u, v, graph.ErrNoEdge)
	}
	for p, w := range net.ports[iv] {
		if w == iu {
			pv = p
			break
		}
	}
	if err := net.g.RemoveEdge(u, v); err != nil {
		return err
	}
	net.dropPort(iu, pu, u)
	net.dropPort(iv, pv, v)
	net.dirty = true
	return nil
}

// dropPort removes port p of internal node a (external ID ext) from the
// port and reverse-port tables, then patches the reverse-port entries of
// every neighbor whose port index on a's side shifted down.
func (net *Network) dropPort(a, p, ext int) {
	if net.extID == nil {
		// The graph's adjacency (already shifted by g.RemoveEdge) is the
		// port list; refetch the shrunk header.
		net.ports[a] = net.g.Neighbors(ext)
	} else {
		lst := net.ports[a]
		copy(lst[p:], lst[p+1:])
		net.ports[a] = lst[:len(lst)-1]
	}
	rv := net.rev[a]
	copy(rv[p:], rv[p+1:])
	net.rev[a] = rv[:len(rv)-1]
	for q := p; q < len(net.ports[a]); q++ {
		x := net.ports[a][q]
		net.rev[x][net.rev[a][q]] = int32(q)
	}
}

// AddNode appends a new isolated node to the graph and the network,
// returning its external ID (the new N-1). On a relabeled network the
// translation arrays grow by an identity entry — a fresh node has no
// edges, so any position in the locality order is as good as any other
// until the next full rebuild. O(1) amortized.
func (net *Network) AddNode() int {
	v := net.g.AddNode()
	net.ports = append(net.ports, nil)
	net.rev = append(net.rev, nil)
	if net.extID != nil {
		// Internal index == external ID for the appended node: both
		// count the same prefix of pre-existing nodes.
		net.extID = append(net.extID, int32(v))
		net.intID = append(net.intID, int32(v))
	}
	net.dirty = true
	return v
}

// IsolateNode removes every edge incident to v (external ID), returning
// how many were removed. The LOCAL runtime keeps node IDs dense, so
// "deleting" a node means isolating it — an isolated node runs its init
// segment and typically halts immediately; algorithms above the runtime
// treat it as absent. O(Σ deg over the removed edges).
func (net *Network) IsolateNode(v int) (int, error) {
	if v < 0 || v >= net.g.N() {
		return 0, fmt.Errorf("local: isolate node %d: out of range [0,%d)", v, net.g.N())
	}
	nbrs := append([]int(nil), net.g.Neighbors(v)...)
	for _, u := range nbrs {
		if err := net.RemoveEdge(v, u); err != nil {
			return 0, err
		}
	}
	return len(nbrs), nil
}

// rebuildFlat reconsolidates the flat directed-edge tables from the
// incrementally-maintained port and reverse-port lists after churn, and
// rebinds both list tiers onto fresh contiguous backings (mutated lists
// drift off the shared backing via append's copy). One O(n + Σ deg)
// pass, called by setup when the network is dirty — the same shape of
// work setup already does for the message lanes every run.
func (net *Network) rebuildFlat() {
	n := net.g.N()
	sum := 0
	for v := 0; v < n; v++ {
		sum += len(net.ports[v])
	}
	off := make([]int, n+1)
	for v := 0; v < n; v++ {
		off[v+1] = off[v] + len(net.ports[v])
	}
	net.off = off
	if net.extID == nil {
		for v := 0; v < n; v++ {
			net.ports[v] = net.g.Neighbors(v)
		}
	} else {
		flat := make([]int, sum)
		for v := 0; v < n; v++ {
			lst := flat[off[v] : off[v]+len(net.ports[v]) : off[v+1]]
			copy(lst, net.ports[v])
			net.ports[v] = lst
		}
	}
	net.portsFlat = make([]int32, sum)
	revFlat := make([]int32, sum)
	for v := 0; v < n; v++ {
		rv := revFlat[off[v]:off[v+1]:off[v+1]]
		copy(rv, net.rev[v])
		net.rev[v] = rv
		for p, u := range net.ports[v] {
			net.portsFlat[off[v]+p] = int32(u)
		}
	}
	net.revFlat = revFlat
	net.slotFlat = nil
	if sum <= 1<<31-1 {
		net.slotFlat = make([]int32, sum)
		for i, u := range net.portsFlat {
			net.slotFlat[i] = int32(off[u]) + net.revFlat[i]
		}
	}
	net.dirty = false
}
