// Graph churn on a live Network: edge and node insert/delete.
//
// A mutation touches only the graph (and, for AddNode, the relabel
// translation arrays) and marks the network dirty; the next run's setup
// rebuilds every port table — off, portsFlat, revFlat, slotFlat — with
// buildPorts in one O(n + Σ deg) pass, the same order of work setup
// already spends clearing the message lanes every run. A burst of k
// mutations therefore costs the graph updates plus one rebuild, not k.
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

import "fmt"

// AddEdge inserts the undirected edge {u, v} (external IDs) into the
// underlying graph. The new neighbor becomes the highest-numbered port on
// both endpoints. O(deg(u)+deg(v)) via the duplicate check; the port
// tables are rebuilt at the start of the next run.
func (net *Network) AddEdge(u, v int) error {
	if err := net.g.AddEdge(u, v); err != nil {
		return err
	}
	net.dirty = true
	return nil
}

// RemoveEdge deletes the undirected edge {u, v} (external IDs) from the
// graph. Surviving ports keep their relative order; ports above the
// removed one shift down by one on both endpoints. O(deg(u)+deg(v)).
func (net *Network) RemoveEdge(u, v int) error {
	if err := net.g.RemoveEdge(u, v); err != nil {
		return fmt.Errorf("local: %w", err)
	}
	net.dirty = true
	return nil
}

// AddNode appends a new isolated node to the graph and the network,
// returning its external ID (the new N-1). On a relabeled network the
// translation arrays grow by an identity entry — a fresh node has no
// edges, so any position in the locality order is as good as any other
// until the next full rebuild. O(1) amortized.
func (net *Network) AddNode() int {
	v := net.g.AddNode()
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
