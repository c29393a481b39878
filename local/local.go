// Package local implements the LOCAL model of distributed computing as a
// runtime: synchronous rounds over a fixed graph, per-round message delivery
// along edges, and automatic round accounting.
//
// An algorithm is a node program executed by every node against a *Ctx.
// Nodes know initially only their own ID, their degree and port numbering,
// and the global parameters n and Δ (as is standard in the LOCAL model).
// A program is given in stepped form (Stepped, RunStepped): Init runs
// once before the first round, and each Step reads the messages of the
// round that just completed and stages the next round's. A node halts by
// returning false. A run may name a node set; nodes outside it never run
// and read as halted from the start, so a run costs its members and their
// ports, not n. Inputs and outputs are the program's own: its closures
// read the caller's per-node inputs and write each node's result into a
// caller slice at index ctx.ID(), a slice that starts at the value meaning
// "no output", so a node cut off by a RoundLimit leaves exactly that.
//
// Messages are unbounded (LOCAL model), so any t-round algorithm is
// equivalent to a function of the t-hop neighborhood. GatherStepped
// implements exactly that flooding pattern as a reusable building block
// (flat per-round frontiers packed into int32 records, returned as flat
// Balls).
//
// # Scheduler architecture
//
// The round engine is a batch-stepped executor. The run's nodes are
// partitioned into k-node batches (contiguous runs in table order); each
// round, a fixed worker pool pulls batches off a shared cursor and
// advances every live node in the batch by one segment, then delivers the
// staged messages batch by batch.
// Each batch owns its live list, sender list and dead-send log, so workers
// never contend on shared state, and small rounds are run inline by the
// coordinating goroutine without waking the pool at all — a round costs
// O(workers) park/wake transitions instead of O(n), and with one worker
// the engine is a plain loop with zero synchronization and zero
// allocations per round.
//
// The executor calls a program's segments directly, with every running
// node's cross-round state in one flat per-run array: no stacks, no
// coroutines, no switches, so a round touches only the compact state and
// message arrays. Every protocol in this repository (Linial, color reduction,
// MIS, list coloring) and every ball-collection phase runs this way.
//
// Message delivery never touches per-node scheduling state: ports,
// receiver slots, payloads, presence maps and receiver flags all live in
// flat arrays indexed by directed-edge slot, so delivering a round of
// small messages streams a few compact arrays instead of walking node
// objects.
//
// # Cache-locality relabeling
//
// Because every engine table is indexed by node (or by the node's
// directed-edge slots), the memory distance between two adjacent nodes'
// slots is the difference of their positions in the tables. NewNetwork
// therefore computes a locality order of the graph (reverse Cuthill–McKee
// seeded from minimum-degree nodes, graph.LocalityOrder) and lays every
// internal table out in that order, so stepping and delivery walk
// near-sequential memory even when the caller's node IDs are scattered
// arbitrarily. The relabeling is invisible: a translation layer (two flat
// arrays, applied exactly once at the API boundary) keeps every
// observable surface — Ctx.ID (by which programs index their inputs and
// outputs), Ctx.Rand seeding, port numbering, DeadSend records — in the
// caller's external IDs, so outputs are byte-identical with relabeling on
// or off. SetRelabel is the ablation hook (and E14 measures the effect).
//
// # Message lanes
//
// Every message is made of int32 words and travels on one of two typed
// lanes. SendInt, BroadcastInt and RecvInt carry a single word through
// flat per-network int32 buffers with a byte presence map, so such rounds
// allocate nothing. Send, Broadcast and Recv carry a record: a []int32 of
// any length, handed to the receiver as the sender's own slice. An edge
// carries at most one message per round, on either lane, and a message's
// size is exact — 4 bytes per word — which is what a counting tracer
// charges (Counters.Words and MaxWords).
//
// # Determinism
//
// Determinism is unaffected by batching and worker count:
// message (receiver, port) slots are fixed by the port numbering, per-node
// randomness is derived from (seed, ID) alone, and round completion is a
// pure function of which nodes halted. For a fixed seed, outputs, round
// counts and phase breakdowns are byte-identical across worker and batch
// configurations — and to the previous goroutine-per-node scheduler.
package local

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"deltacolor/graph"
)

// Ctx is a node's interface to the network during a run.
//
// A network's contexts are built with its port tables, not per run: the
// fixed fields below (ID, degree, network, lane views) stay valid until
// churn rebuilds the tables, and a run sets only the per-run ones.
type Ctx struct {
	id  int        // external (caller-visible) node ID
	deg int        // number of ports
	rng *rand.Rand // lazily created; see Rand; reset when a run starts

	net *Network

	// Per-port message lanes: views into the network's flat run tables
	// (in/out records, int32 payloads, byte presence maps).
	in     []recSlot
	out    []recSlot
	inInt  []int32
	outInt []int32
	inHas  []byte
	outHas []byte

	si      int32 // index of the node's program state in the current run
	nRecs   int32 // non-nil slots currently staged in out (owner-only)
	nInts   int32 // slots currently staged in outHas (owner-only)
	sentAny bool  // made a staging call this round (owner-only)
}

// recSlot is one record-lane slot: a []int32 record held as its data
// pointer and length. The record lanes span every directed edge twice,
// and a fresh network (the quotient networks MIS runs on are built per
// call) allocates them and has the GC scan them anew, so the slot is kept
// at 16 bytes; a slice header takes 24. p is nil exactly for the nil
// record: an empty non-nil record keeps a non-nil data pointer.
type recSlot struct {
	p *int32
	n int
}

func toSlot(rec []int32) recSlot { return recSlot{unsafe.SliceData(rec), len(rec)} }

// rec rebuilds the record, with its capacity cut to its length.
func (s recSlot) rec() []int32 {
	if s.p == nil {
		return nil
	}
	return unsafe.Slice(s.p, s.n)
}

// ID returns this node's unique identifier in [0, n).
func (c *Ctx) ID() int { return c.id }

// Degree returns the node's degree (number of ports).
func (c *Ctx) Degree() int { return c.deg }

// N returns the number of nodes in the network (global knowledge, standard
// in the LOCAL model).
func (c *Ctx) N() int { return len(c.net.ctxs) }

// MaxDegree returns Δ, the maximum degree of the network.
func (c *Ctx) MaxDegree() int { return c.net.maxDeg }

// Rand returns the node's private randomness source. Its stream equals
// rand.New(rand.NewSource(seed*1_000_003 + id)) for the run seed and the
// node's external ID, but seeding it is O(1) (see rand.go). The generator
// is created on first use, so protocols that never draw allocate nothing.
func (c *Ctx) Rand() *rand.Rand {
	if c.rng == nil {
		c.rng = rand.New(newLazySource(c.net.seed*1_000_003 + int64(c.id)))
	}
	return c.rng
}

// Send stages the record rec to be delivered to the neighbor on port p at
// the end of the current round. Each edge carries at most one message per
// round: a later Send, SendInt, Broadcast or BroadcastInt on the same port
// overwrites the earlier staging, whichever lane it used (messages are
// unbounded in the LOCAL model, so algorithms bundle what they need).
// Sending nil un-stages the port; an empty non-nil record is a message.
//
// The receiver sees rec itself, not a copy (its capacity cut to its
// length), and may keep it: a sent record must not be modified afterwards.
//
//deltacolor:hotpath
func (c *Ctx) Send(p int, rec []int32) {
	old := c.out[p].p
	c.out[p] = toSlot(rec)
	if old == nil {
		if rec != nil {
			c.nRecs++
		}
	} else if rec == nil {
		c.nRecs--
	}
	if c.outHas[p] != 0 {
		c.outHas[p] = 0
		c.nInts--
	}
	c.sentAny = true
}

// Broadcast stages rec on every port, overwriting anything staged earlier
// this round (including int-lane stagings); the same slice reaches every
// neighbor, under Send's no-modification rule. On a degree-0 node it is a
// no-op: there are no edges to carry the message, and the node is not
// registered as a sender.
//
//deltacolor:hotpath
func (c *Ctx) Broadcast(rec []int32) {
	if len(c.out) == 0 {
		return
	}
	s := toSlot(rec)
	for p := range c.out {
		c.out[p] = s
	}
	if rec == nil {
		c.nRecs = 0
	} else {
		c.nRecs = int32(len(c.out))
	}
	if c.nInts != 0 {
		clear(c.outHas)
		c.nInts = 0
	}
	c.sentAny = true
}

// SendInt stages the integer v on port p through the allocation-free int
// lane. v must fit in an int32; a wider value panics. Like Send, a later
// staging on the same port overwrites an earlier one regardless of lane.
//
//deltacolor:hotpath
func (c *Ctx) SendInt(p int, v int) {
	if int64(int32(v)) != int64(v) {
		intOverflow(v)
	}
	c.outInt[p] = int32(v)
	if c.outHas[p] == 0 {
		c.outHas[p] = 1
		c.nInts++
	}
	if c.out[p].p != nil {
		c.out[p] = recSlot{}
		c.nRecs--
	}
	c.sentAny = true
}

// BroadcastInt stages the integer v on every port through the int lane.
// Like Broadcast, it overwrites earlier stagings and is a no-op on
// degree-0 nodes; like SendInt, it panics when v does not fit in an int32.
//
//deltacolor:hotpath
func (c *Ctx) BroadcastInt(v int) {
	if int64(int32(v)) != int64(v) {
		intOverflow(v)
	}
	if len(c.outHas) == 0 {
		return
	}
	w := int32(v)
	for p := range c.outInt {
		c.outInt[p] = w
	}
	for p := range c.outHas {
		c.outHas[p] = 1
	}
	c.nInts = int32(len(c.outHas))
	if c.nRecs != 0 {
		clear(c.out)
		c.nRecs = 0
	}
	c.sentAny = true
}

// intOverflow reports an int-lane value that does not fit the lane's
// int32 word.
func intOverflow(v int) {
	panic(fmt.Sprintf("local: int-lane message %d does not fit in an int32", v))
}

// Recv returns the record received on port p in the last completed round,
// or nil when none arrived (an int-lane message is read with RecvInt).
//
//deltacolor:hotpath
func (c *Ctx) Recv(p int) []int32 { return c.in[p].rec() }

// RecvInt reports the integer received on port p in the last completed
// round over the int lane. ok is false when no integer message arrived on
// p.
//
//deltacolor:hotpath
func (c *Ctx) RecvInt(p int) (v int, ok bool) {
	if c.inHas[p] != 0 {
		return int(c.inInt[p]), true
	}
	return 0, false
}

// batch is the scheduler's unit of work: a contiguous ID range of nodes
// stepped (and delivered) together. Exactly one worker touches a batch per
// phase, so its lists need no locks; padding keeps batches off each
// other's cache lines.
type batch struct {
	live    []int32 // non-halted members, ascending ID
	senders []int32 // members that staged sends this round
	halts   int     // nodes that halted during the last step sweep

	dead []DeadSend // sends to halted receivers found while delivering

	// Per-round tracing counters, written by the delivery kernels only
	// when the network's tracer counts messages (exactly one worker owns
	// a batch per phase, so no locks) and drained by the coordinator
	// after the delivery phase.
	trInts, trRecs, trDrops int32
	trWords, trMaxWords     int64

	// Per-round fault-injection counters and the delayed/duplicated
	// messages staged by this batch's faulty kernels (fault.go). Same
	// ownership rule as the tracing counters: one worker per phase,
	// drained by the coordinator each round. All zero/empty when no
	// FaultPlan is attached.
	ftDrops, ftDups, ftDelays, ftCrashIn, ftOffline, ftPanics int32
	pend                                                      []pendingFault

	_ [64]byte
}

// DeadSend records a message that was staged for a neighbor that had
// already halted; the message is dropped. A send with Round == HaltRound
// is unavoidable in the LOCAL model: the receiver halted in the very sweep
// the message was staged, before any signal could reach the sender. A send
// with Round > HaltRound means the sender kept talking to a node it could
// already have learned was gone — a protocol bug (see LateDeadSends). A
// node outside the run's node set (see RunStepped) reads as halted from
// round 0, so every send to one is late.
// Enable tracking with Network.TrackDeadSends.
type DeadSend struct {
	From      int // sender node ID
	Port      int // sender's port the message was staged on
	To        int // halted receiver node ID
	Round     int // 1-based round in which the send was staged
	HaltRound int // 1-based round during whose sweep the receiver halted; 0 outside the node set
}

func (d DeadSend) String() string {
	return fmt.Sprintf("round %d: node %d sent to halted node %d on port %d", d.Round, d.From, d.To, d.Port)
}

// RunStats summarizes the throughput of the last run.
type RunStats struct {
	Nodes        int // nodes that ran (the node set's size, or n)
	Rounds       int
	WallTime     time.Duration
	RoundsPerSec float64 // 0 when the run had no rounds
}

// Network runs node programs over a graph.
//
// Internally nodes are stored in a cache-locality order (see the package
// doc); every field below that is indexed by node or by directed-edge
// slot uses internal indices. The extID/intID arrays translate at the
// API boundary and are nil when the locality order is the identity (or
// relabeling is ablated), in which case internal == external.
type Network struct {
	g    *graph.G
	seed int64

	extID []int32 // extID[i] = external ID of internal node i; nil if identity
	intID []int32 // intID[v] = internal index of external node v; nil if identity

	// Flat directed-edge tables, built by buildPorts: slot off[v]+p is
	// port p of node v. Delivery works entirely on these (plus the per-run
	// lanes below), so it streams compact arrays instead of walking node
	// objects.
	off       []int   // off[v] = first slot of v; len n+1
	portsFlat []int32 // portsFlat[off[v]+p] = neighbor on port p
	slotFlat  []int32 // slotFlat[off[v]+p] = off[neighbor] + port of v on the neighbor's side: the receiver's lane slot

	// Run tables: the contexts, the message lanes and the receiver flags,
	// indexed by node (ctxs, flags, haltSeg) or slot (lanes), built by
	// resetRunTables after each port-table build. Between runs every lane
	// is empty and every node reads as absent; a run marks its members
	// running and leaves the tables clean again when it ends (finishRun),
	// so a run costs its members, not n. recvRec/recvInt are set by
	// delivery workers and cleared by the stepping worker that owns the
	// node; they are atomic because two workers delivering from different
	// senders may flag the same receiver.
	ctxs             []Ctx
	inRec, outRec    []recSlot
	inInt, outInt    []int32
	inHas, outHas    []byte
	recvRec, recvInt []atomic.Bool
	haltSeg          []int32 // 0 while running; absent outside the run; else the round of the sweep v halted in
	maxDeg           int     // Δ as the contexts report it
	clean            bool    // the run tables match the port tables and hold nothing of a previous run

	members []int32 // the current run's nodes, ascending internal index

	rounds  int
	lastRun RunStats

	batches   []batch         // reused across runs
	batchSize int             // forced batch size; 0 = auto
	nworkers  int             // worker pool size (stepping and delivery)
	cursor    atomic.Int64    // next batch index during a parallel phase
	segment   func(*Ctx) bool // current step phase's segment function

	noHalts bool // no node has halted yet this run: delivery skips the haltSeg checks

	trackDead bool // record sends to halted neighbors
	strict    bool // panic after a run that recorded dead sends

	tracer    *Tracer // round-level tracing (see trace.go); nil = off
	countMsgs bool    // per-run: tracer wants lane counts from delivery

	// Fault injection (fault.go). fault == nil is the only state the hot
	// kernels ever see on a healthy network: doBatch dispatches to the
	// separate faulty kernels on one pointer check, so the injection-free
	// fast path keeps its zero-allocs-per-round guarantee bit for bit.
	fault      *FaultPlan            // nil = no injection
	crashW     map[int][]CrashWindow // external ID -> offline windows, built by SetFaultPlan
	faultStats FaultStats            // per-run fault counters (coordinator-owned)
	pendFault  []pendingFault        // delayed/duplicated messages awaiting injection
	runSeq     int64                 // run sequence number; domain-separates fault hashing across runs

	// Churn (churn.go): set by the mutation API; setup rebuilds the flat
	// edge tables before the next run.
	dirty bool
}

// strictDead is the package default installed on new networks; see
// SetStrictDeadSends.
var strictDead atomic.Bool

// SetStrictDeadSends installs a package-wide default for networks created
// afterwards: dead-send tracking is enabled and any run that records a
// late dead send (see LateDeadSends) panics with the report. Intended for
// experiment harnesses and CI (`benchsuite -strict`), where a message
// staged for a neighbor the sender could have known was halted is a
// protocol regression that must fail loudly instead of being silently
// dropped in user runs.
func SetStrictDeadSends(on bool) { strictDead.Store(on) }

// StrictDeadSends reports the current package default.
func StrictDeadSends() bool { return strictDead.Load() }

// relabelOff ablates the locality relabeling for networks created
// afterwards; the zero value means relabeling is ON (the default).
var relabelOff atomic.Bool

// SetRelabel toggles the cache-locality node relabeling (on by default)
// for networks created afterwards. Relabeling is a memory-layout detail
// with no observable effect — every public surface reports external IDs
// and outputs are byte-identical either way — so the only reason to turn
// it off is ablation measurement (experiment E14 does exactly that).
func SetRelabel(on bool) { relabelOff.Store(!on) }

// RelabelEnabled reports the current package default.
func RelabelEnabled() bool { return !relabelOff.Load() }

// Relabeled reports whether this network's internal tables actually use
// a non-identity locality order (false when relabeling was ablated or
// the computed order was already the identity).
func (net *Network) Relabeled() bool { return net.extID != nil }

// toExt translates an internal node index to the external ID every
// public surface reports; identity when the network is not relabeled.
func (net *Network) toExt(i int) int {
	if net.extID == nil {
		return i
	}
	return int(net.extID[i])
}

// toInt translates an external node ID to its internal table index;
// identity when the network is not relabeled.
func (net *Network) toInt(v int) int {
	if net.intID == nil {
		return v
	}
	return int(net.intID[v])
}

// NewNetwork prepares a network over g with the given randomness seed.
// Construction is the locality-order pass (BFS-shaped; see
// graph.LocalityOrder) plus buildPorts' O(n + Σ deg). It panics when g
// has more than math.MaxInt32 directed edges, the most an int32 receiver
// slot can address.
func NewNetwork(g *graph.G, seed int64) *Network {
	n := g.N()
	net := &Network{g: g, seed: seed, tracer: defaultTracer.Load()}
	if strictDead.Load() {
		net.trackDead = true
		net.strict = true
	}
	if p := defaultFaultPlan.Load(); p != nil {
		// The default plan was validated when it was installed, so the
		// attach cannot fail here.
		_ = net.SetFaultPlan(p)
	}
	if !relabelOff.Load() && n > 1 {
		ord := graph.LocalityOrder(g)
		// Adopt the order only when it strictly improves the labeling
		// bandwidth: RCM reverses an already-sequential labeling (equal
		// bandwidth), and paying the translation tables for an order
		// that is no more local than the caller's would cost build time
		// and memory for zero delivery benefit.
		if graph.Bandwidth(g, ord) < graph.Bandwidth(g, nil) {
			net.extID = make([]int32, n)
			net.intID = make([]int32, n)
			for i, v := range ord {
				net.extID[i] = int32(v)
				net.intID[v] = int32(i)
			}
		}
	}
	net.buildPorts()
	net.SetWorkers(runtime.GOMAXPROCS(0))
	return net
}

// buildPorts lays out the flat directed-edge tables from the graph and
// the relabel arrays in one O(n + Σ deg) pass. Internal node i's port p
// leads to the internal index of g.Neighbors(extID[i])[p]: the port
// numbering every node observes is exactly the external adjacency-list
// order, only the stored endpoints are internal. NewNetwork calls it, and
// setup calls it again when churn has mutated the graph since.
func (net *Network) buildPorts() {
	g := net.g
	n := g.N()
	off := make([]int, n+1)
	for i := 0; i < n; i++ {
		off[i+1] = off[i] + g.Deg(net.toExt(i))
	}
	sum := off[n]
	if sum > math.MaxInt32 {
		panic(fmt.Sprintf("local: %d directed edges exceed the limit of %d (math.MaxInt32) that int32 receiver slots can address", sum, math.MaxInt32))
	}
	ports := make([]int32, sum)
	for i := 0; i < n; i++ {
		for p, u := range g.Neighbors(net.toExt(i)) {
			ports[off[i]+p] = int32(net.toInt(u))
		}
	}

	// Bucket every directed edge (v, p) under its head u = ports[off[v]+p].
	// Bucket u occupies positions off[u]:off[u+1], so no resizing happens.
	bufV := make([]int32, sum)
	bufP := make([]int32, sum)
	cursor := make([]int, n)
	copy(cursor, off[:n])
	for v := 0; v < n; v++ {
		for p, u := range ports[off[v]:off[v+1]] {
			k := cursor[u]
			cursor[u]++
			bufV[k] = int32(v)
			bufP[k] = int32(p)
		}
	}
	// For each node u, scratch[w] = port of w in u's list; every entry
	// (v, p) in u's bucket then resolves as reverse port scratch[v], and
	// its receiver slot is off[u] plus that port, so the delivery loop
	// reads one sequential int32 instead of chasing off[u] through a
	// scattered 8-byte table. Stale scratch entries are never read:
	// bucket u holds exactly u's neighbors.
	slots := make([]int32, sum)
	scratch := make([]int32, n)
	for u := 0; u < n; u++ {
		for q, w := range ports[off[u]:off[u+1]] {
			scratch[w] = int32(q)
		}
		for k := off[u]; k < off[u+1]; k++ {
			slots[off[bufV[k]]+int(bufP[k])] = int32(off[u]) + scratch[bufV[k]]
		}
	}
	net.off, net.portsFlat, net.slotFlat = off, ports, slots
	net.dirty = false
	net.clean = false // the contexts' lane views follow off
}

// SetWorkers pins the scheduler's worker-pool size for subsequent runs
// (NewNetwork defaults to GOMAXPROCS), clamped to [1, n]. Worker count is
// a scheduling detail: outputs, rounds and stats are identical for every
// value. Must not be called during a run.
func (net *Network) SetWorkers(k int) {
	if n := net.g.N(); k > n {
		k = n
	}
	if k < 1 {
		k = 1
	}
	net.nworkers = k
}

// setBatch forces the node-batch size for subsequent runs (0 restores the
// automatic size). Batching is a scheduling detail with no semantic
// effect; tests use this to exercise batch boundaries.
func (net *Network) setBatch(k int) {
	if k < 0 {
		k = 0
	}
	net.batchSize = k
}

// Reseed changes the seed that derives per-node randomness (and nothing
// else) for subsequent runs. It makes one network reusable across the
// phases of a composite algorithm — each phase reseeds instead of paying
// a full NewNetwork rebuild. Must not be called during a run.
func (net *Network) Reseed(seed int64) { net.seed = seed }

// Rounds returns the number of synchronous rounds of the last run.
func (net *Network) Rounds() int { return net.rounds }

// LastRunStats returns throughput statistics for the last completed run.
func (net *Network) LastRunStats() RunStats { return net.lastRun }

// Graph returns the underlying graph.
func (net *Network) Graph() *graph.G { return net.g }

// TrackDeadSends toggles the debug mode that records every message staged
// for an already-halted neighbor (the message is dropped either way, as it
// always was). Such sends indicate protocol bugs; read the report with
// DeadSends after the run.
func (net *Network) TrackDeadSends(on bool) { net.trackDead = on }

// DeadSends returns the dead sends recorded during the last run (tracking
// must be enabled before the run starts), sorted by (round, sender, port).
// It returns nil when tracking is off or nothing was dropped.
func (net *Network) DeadSends() []DeadSend {
	var all []DeadSend
	for i := range net.batches {
		all = append(all, net.batches[i].dead...)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Round != b.Round {
			return a.Round < b.Round
		}
		if a.From != b.From {
			return a.From < b.From
		}
		return a.Port < b.Port
	})
	return all
}

// LateDeadSends returns only the dead sends staged after the sweep the
// receiver halted in — the ones a well-behaved protocol can avoid (a
// halting node can announce itself in its final staged messages, and its
// neighbors read that announcement before staging the following round).
// These are the sends strict mode treats as protocol regressions.
func (net *Network) LateDeadSends() []DeadSend {
	var late []DeadSend
	for _, d := range net.DeadSends() {
		if d.Round > d.HaltRound {
			late = append(late, d)
		}
	}
	return late
}

// Stepped is a node program, split into the segments between round
// barriers:
//
//   - Init runs once per node before the first round. It may stage
//     messages, and returns false to halt without entering round 1.
//   - Step runs once per round: it reads the messages of the round that
//     just completed, stages the next round's, and returns false to halt.
//
// Cross-round node state lives in S; the executor keeps the states of the
// run's nodes in one flat array, so programs run without per-node stacks or
// coroutines — segments are plain calls on the worker's own stack.
type Stepped[S any] struct {
	Init func(ctx *Ctx, s *S) bool
	Step func(ctx *Ctx, s *S) bool
}

// RunStepped executes a stepped program until every node of the run
// halts. The program delivers its results itself (see the package doc);
// the number of rounds used is available via Rounds.
//
// Without nodes, every node runs. Otherwise only the listed nodes
// (external IDs, in any order; a repeat counts once) run, and a list that
// names every node is the same run as none. A node outside the set never
// runs Init or Step, gets no program state and reads as halted from round
// 0: a message staged for it is dropped as a dead send with HaltRound 0,
// which strict mode rejects. An empty list therefore runs nothing, in 0
// rounds. The run costs its members and their ports, not n.
func RunStepped[S any](net *Network, p Stepped[S], nodes ...int) {
	net.setup(nodes)
	// States are indexed by rank among the members in internal order, so
	// a batch's step sweep walks this array sequentially.
	states := make([]S, len(net.members))
	init := func(c *Ctx) bool { return p.Init(c, &states[c.si]) }
	step := func(c *Ctx) bool { return p.Step(c, &states[c.si]) }
	net.runRounds(init, step)
}

// absent is the haltSeg value of a node outside the current run (or of
// every node between runs): halted before round 1.
const absent = -1

// setup prepares a run of the given nodes (nil = every node) and resets
// every piece of bookkeeping a previous run on the same network may have
// left behind (round counter, run stats, fault counters, the batches'
// dead-send logs), so consecutive runs never leak state into each other's
// reports. The run tables are rebuilt only after a port-table build or a
// run that panicked (one that ended normally left them clean); otherwise
// setup touches only the members: it marks them running, gives each its
// state index and drops the previous run's generator.
func (net *Network) setup(nodes []int) {
	if net.dirty {
		net.buildPorts()
	}
	n := net.g.N()
	net.rounds = 0
	net.lastRun = RunStats{}
	net.runSeq++
	if net.fault != nil {
		net.faultStats = FaultStats{}
		net.pendFault = net.pendFault[:0]
	}
	if !net.clean {
		net.resetRunTables()
	}
	// A run that panics leaves clean false, so the next one starts from a
	// full reset.
	net.clean = false

	ms := net.members[:0]
	if nodes == nil {
		for v := range n {
			ms = append(ms, int32(v))
		}
	} else {
		// Every node reads as absent here, so marking each member running
		// dedupes the list. Table order keeps a batch's sweep sequential:
		// a small set is sorted, a large one read back off the marks.
		for _, v := range nodes {
			if v < 0 || v >= n {
				panic(fmt.Sprintf("local: run node %d outside [0,%d)", v, n))
			}
			if i := net.toInt(v); net.haltSeg[i] == absent {
				net.haltSeg[i] = 0
				ms = append(ms, int32(i))
			}
		}
		if len(ms)*bits.Len(uint(len(ms))) < n {
			slices.Sort(ms)
		} else {
			ms = ms[:0]
			for i, h := range net.haltSeg {
				if h == 0 {
					ms = append(ms, int32(i))
				}
			}
		}
	}
	net.members = ms
	for k, id := range ms {
		c := &net.ctxs[id]
		c.si = int32(k)
		if c.rng != nil {
			c.rng = nil
		}
		net.haltSeg[id] = 0
	}

	m := len(ms)
	bs := net.batchSize
	if bs <= 0 {
		bs = defaultBatchSize(m, net.nworkers)
	}
	nb := max((m+bs-1)/bs, 1)
	if cap(net.batches) < nb {
		net.batches = make([]batch, nb)
	}
	net.batches = net.batches[:nb]
	for i := range net.batches {
		b := &net.batches[i]
		lo, hi := min(i*bs, m), min((i+1)*bs, m)
		*b = batch{live: append(b.live[:0], ms[lo:hi]...), senders: b.senders[:0], dead: b.dead[:0], pend: b.pend[:0]}
	}
}

// resetRunTables brings the run tables to their between-runs state: every
// lane and receiver flag clear, every node absent, and every context's
// fixed fields matching the port tables. The tables are allocated when
// their size changed (the first run, or churn that changed the node or
// slot count) and cleared in place otherwise.
func (net *Network) resetRunTables() {
	n := net.g.N()
	total := net.off[n]
	if len(net.ctxs) != n || len(net.inInt) != total {
		net.ctxs = make([]Ctx, n)
		recs := make([]recSlot, 2*total)
		ints := make([]int32, 2*total)
		has := make([]byte, 2*total)
		net.inRec, net.outRec = recs[:total:total], recs[total:]
		net.inInt, net.outInt = ints[:total:total], ints[total:]
		net.inHas, net.outHas = has[:total:total], has[total:]
		flags := make([]atomic.Bool, 2*n)
		net.recvRec, net.recvInt = flags[:n:n], flags[n:]
		words := make([]int32, 2*n) // haltSeg, then room for every member
		net.haltSeg, net.members = words[:n:n], words[n:n]
	} else {
		clear(net.inRec)
		clear(net.outRec)
		clear(net.inHas)
		clear(net.outHas)
		clear(net.recvRec)
		clear(net.recvInt)
	}
	net.maxDeg = net.g.MaxDegree()
	for v := range n {
		lo, hi := net.off[v], net.off[v+1]
		net.ctxs[v] = Ctx{
			id:     net.toExt(v),
			deg:    hi - lo,
			net:    net,
			in:     net.inRec[lo:hi:hi],
			out:    net.outRec[lo:hi:hi],
			inInt:  net.inInt[lo:hi:hi],
			outInt: net.outInt[lo:hi:hi],
			inHas:  net.inHas[lo:hi:hi],
			outHas: net.outHas[lo:hi:hi],
		}
		net.haltSeg[v] = absent
	}
}

// finishRun leaves the run tables clean for the next run. Every inbox is
// already empty (each live node clears its own when it steps, and nothing
// is delivered to a halted one), so what is left is the last sweep's
// staged messages, never delivered: their senders are unstaged, and every
// member reads as absent again.
func (net *Network) finishRun() {
	for i := range net.batches {
		b := &net.batches[i]
		for _, id := range b.senders {
			c := &net.ctxs[id]
			if c.nRecs > 0 {
				clear(c.out)
			}
			if c.nInts > 0 {
				clearBytes(c.outHas)
			}
			c.nRecs, c.nInts, c.sentAny = 0, 0, false
		}
		b.senders = b.senders[:0]
	}
	for _, id := range net.members {
		net.haltSeg[id] = absent
	}
	net.clean = true
}

// defaultBatchSize balances per-batch bookkeeping against load-balancing
// granularity: a handful of batches per worker, clamped so tiny networks
// still form one batch and huge ones keep contiguous cache-friendly runs.
func defaultBatchSize(n, workers int) int {
	bs := n / (workers * 8)
	if bs < 64 {
		bs = 64
	}
	if bs > 2048 {
		bs = 2048
	}
	return bs
}

// parallelWork is the phase size below which the coordinator runs the
// phase inline instead of waking the worker pool.
const parallelWork = 256

// Phase identifiers dispatched to workers.
const (
	phaseStep = iota
	phaseDeliver
)

// runRounds drives the shared round engine: init advances every member
// through segment 0, then each iteration folds halts, delivers the staged
// messages and advances every live node by one segment. Matching the
// historical semantics, the final all-halt sweep is not counted as a round
// and its staged messages are dropped.
//
// A node panic on a healthy network ends the run: runRounds re-panics
// with the first panic value once every worker has left the phase, and
// leaves no worker goroutine behind. (Under a FaultPlan, node panics are
// contained per node instead; see stepNodeRecover.)
//
//deltacolor:coordinator
func (net *Network) runRounds(init, step func(*Ctx) bool) {
	n, m := net.g.N(), len(net.members)
	start := time.Now()

	// Worker pool: W-1 helpers plus the coordinating goroutine. Helpers
	// park on the command channel between phases, so a phase costs at
	// most O(workers) park/wake transitions — and none at all when it
	// runs inline below the parallelWork threshold or with one worker.
	// Each helper reports its phase's recovered panic (nil if none) on
	// done; the deferred close releases them on every exit path, panics
	// included, and waits until they are gone.
	w := min(net.nworkers, len(net.batches))
	var cmd chan int
	var done chan any
	if w > 1 {
		cmd = make(chan int)
		done = make(chan any)
		var helpers sync.WaitGroup
		helpers.Add(w - 1)
		for i := 1; i < w; i++ {
			go func() {
				defer helpers.Done()
				for ph := range cmd {
					done <- net.recoverPhase(ph)
				}
			}()
		}
		defer func() {
			close(cmd)
			helpers.Wait()
		}()
	}
	// phase runs one engine phase; the channel sends publish net.segment
	// and the cursor reset to the helpers (happens-before), and the done
	// receives collect their writes back.
	phase := func(ph, load int) {
		if w <= 1 || load < parallelWork {
			for i := range net.batches {
				net.doBatch(ph, &net.batches[i])
			}
			return
		}
		net.cursor.Store(0)
		for i := 1; i < w; i++ {
			cmd <- ph
		}
		first := net.recoverPhase(ph)
		for i := 1; i < w; i++ {
			if p := <-done; first == nil {
				first = p
			}
		}
		if first != nil {
			panic(first)
		}
	}

	// Tracing: a nil tracer costs one pointer check per phase. Counters
	// mode adds the lane and word counts per sender inside delivery (a
	// pass over the ports of a record sender); full mode additionally
	// takes two timestamps per phase and writes one record per round into
	// the preallocated ring — no allocations either way.
	tr := net.tracer
	net.countMsgs = tr != nil && tr.level >= TraceCounters
	full := tr != nil && tr.level >= TraceFull
	if tr != nil {
		tr.beginRun()
	}

	running := m
	net.segment = init
	var t0 time.Time
	if full {
		t0 = time.Now()
	}
	phase(phaseStep, m)
	if full {
		// The init segment is not a round; its time lands in the
		// cumulative counters only.
		tr.c.StepNanos += time.Since(t0).Nanoseconds()
	}
	for {
		prev := running
		live, senders := 0, 0
		for i := range net.batches {
			b := &net.batches[i]
			running -= b.halts
			b.halts = 0
			live += len(b.live)
			senders += len(b.senders)
		}
		if tr != nil {
			// Halts folded here happened during the previous step sweep;
			// the tracer attributes them to the round recorded last.
			tr.foldHalts(prev - running)
		}
		if running == 0 {
			break
		}
		if net.fault != nil {
			// Delayed/duplicated messages whose due round arrived are
			// written into the inbox lanes before the live senders deliver;
			// a fresh message on the same (receiver, port) slot overwrites
			// the stale injection, matching the one-message-per-edge rule.
			net.injectPending()
		}
		var rt RoundTrace
		if full {
			t0 = time.Now()
			rt.StartNanos = t0.Sub(tr.epoch).Nanoseconds()
		}
		if senders > 0 {
			// While every node of the network is still running no receiver
			// can be halted or absent, so delivery skips the per-message
			// haltSeg lookups entirely (published to the helpers by the
			// phase channel send).
			net.noHalts = running == n
			phase(phaseDeliver, senders)
			if full {
				rt.DeliverNanos = time.Since(t0).Nanoseconds()
			}
		}
		if net.countMsgs {
			for i := range net.batches {
				b := &net.batches[i]
				rt.IntMsgs += int(b.trInts)
				rt.RecordMsgs += int(b.trRecs)
				rt.Drops += int(b.trDrops)
				tr.c.Words += b.trWords
				tr.c.MaxWords = max(tr.c.MaxWords, b.trMaxWords)
				b.trInts, b.trRecs, b.trDrops, b.trWords, b.trMaxWords = 0, 0, 0, 0, 0
			}
		}
		if net.fault != nil {
			net.drainFault(tr)
		}
		net.rounds++
		net.segment = step
		if full {
			t0 = time.Now()
		}
		phase(phaseStep, live)
		if tr != nil {
			if full {
				rt.StepNanos = time.Since(t0).Nanoseconds()
				rt.Round = net.rounds
				rt.Live = live
				rt.Senders = senders
				tr.record(rt)
			} else {
				tr.countRound(rt.IntMsgs, rt.RecordMsgs, rt.Drops)
			}
		}
		if net.fault != nil && net.fault.RoundLimit > 0 && net.rounds >= net.fault.RoundLimit {
			// Dropped or delayed messages can stall a protocol forever; the
			// plan's round budget force-halts the run so every faulty
			// execution terminates. Still-running nodes never write their
			// outputs, so their slots keep the caller's "no output" value.
			// A run that finished on its own in exactly the budget (the
			// step sweep above halted everyone) is not flagged as limited.
			rem := running
			for i := range net.batches {
				rem -= net.batches[i].halts
			}
			if rem > 0 {
				net.faultStats.RoundLimited = 1
				break
			}
		}
	}
	if net.fault != nil {
		net.finishFaultRun(tr)
	}
	net.finishRun()

	wall := time.Since(start)
	net.lastRun = RunStats{Nodes: m, Rounds: net.rounds, WallTime: wall}
	if net.rounds > 0 && wall > 0 {
		net.lastRun.RoundsPerSec = float64(net.rounds) / wall.Seconds()
	}
	// An attached FaultPlan voids the protocol-bug detector: injected
	// drops and crash windows legitimately make halt knowledge stale, so
	// late dead sends under faults are expected collateral (the
	// fault-destroyed ones are accounted separately in FaultStats), not
	// protocol regressions.
	if net.strict && net.fault == nil {
		if ds := net.LateDeadSends(); len(ds) > 0 {
			panic(fmt.Sprintf("local: strict mode: %d late dead send(s) recorded, first: %s", len(ds), ds[0]))
		}
	}
}

// recoverPhase is workPhase for a parallel phase: a node panic stops this
// worker's share of the phase and is returned instead of unwinding the
// worker, so the coordinator can collect every worker before it
// re-panics. It returns nil when the phase completed.
func (net *Network) recoverPhase(ph int) (p any) {
	defer func() { p = recover() }()
	net.workPhase(ph)
	return nil
}

// workPhase pulls batches off the shared cursor until the phase is drained.
//
//deltacolor:hotpath
func (net *Network) workPhase(ph int) {
	nb := int64(len(net.batches))
	for {
		i := net.cursor.Add(1) - 1
		if i >= nb {
			return
		}
		net.doBatch(ph, &net.batches[i])
	}
}

// doBatch dispatches one batch to the current phase's kernel. Fault
// injection costs exactly one nil check here when no plan is attached;
// the faulty kernels (fault.go) are separate functions so the healthy
// kernels below stay allocation-free and branch-identical.
//
//deltacolor:hotpath
func (net *Network) doBatch(ph int, b *batch) {
	if ph == phaseStep {
		if net.fault != nil {
			net.stepBatchFaulty(net.segment, b)
			return
		}
		net.stepBatch(net.segment, b)
	} else {
		if net.fault != nil {
			net.deliverBatchFaulty(b)
			return
		}
		net.deliverBatch(b)
	}
}

// stepBatch advances every live node in the batch by one segment, clears
// the inboxes the node just consumed, collects senders, and compacts
// halted nodes out of the live list.
//
//deltacolor:hotpath
func (net *Network) stepBatch(fn func(*Ctx) bool, b *batch) {
	kept := b.live[:0]
	for _, id := range b.live {
		c := &net.ctxs[id]
		if fn(c) {
			kept = append(kept, id)
		} else {
			net.haltSeg[id] = int32(net.rounds) + 1
			b.halts++
		}
		if net.recvRec[id].Load() {
			clear(c.in)
			net.recvRec[id].Store(false)
		}
		if net.recvInt[id].Load() {
			clearBytes(c.inHas)
			net.recvInt[id].Store(false)
		}
		if c.sentAny {
			b.senders = append(b.senders, id)
		}
	}
	b.live = kept
}

// clearBytes zeroes a byte slice, avoiding the memclr call overhead for
// the tiny presence maps of low-degree nodes.
//
//deltacolor:hotpath
func clearBytes(h []byte) {
	if len(h) <= 16 {
		for i := range h {
			h[i] = 0
		}
		return
	}
	clear(h)
}

// deliverBatch moves every staged message of the batch's senders into the
// receivers' inboxes, working entirely on the flat edge tables — delivery
// never touches receiver contexts or scheduling state. Each (receiver,
// port) slot has a unique sender, so workers on different batches never
// write the same slot; the receiver flags are atomic because distinct
// senders may share a receiver.
//
//deltacolor:hotpath
//deltacolor:coordinator
func (net *Network) deliverBatch(b *batch) {
	// checkHalt is false while no node in the network has halted: the
	// haltSeg lookup is then provably always zero, so the hot loops skip
	// one scattered read per message. slotFlat gives the receiver's slot
	// in one sequential int32 read.
	checkHalt := !net.noHalts
	count := net.countMsgs
	sf := net.slotFlat
	for _, id := range b.senders {
		c := &net.ctxs[id]
		base := net.off[id]
		if count {
			b.count(c)
		}
		if c.nRecs > 0 {
			out := c.out
			for p, rec := range out {
				if rec.p == nil {
					continue
				}
				out[p] = recSlot{}
				u := net.portsFlat[base+p]
				if checkHalt && net.haltSeg[u] != 0 {
					if count {
						b.trDrops++
					}
					if net.trackDead {
						b.dead = append(b.dead, net.deadSend(c, p, u))
					}
					continue
				}
				net.inRec[sf[base+p]] = rec
				if !net.recvRec[u].Load() {
					net.recvRec[u].Store(true)
				}
			}
			c.nRecs = 0
		}
		if c.nInts > 0 {
			oh := c.outHas
			for p, h := range oh {
				if h == 0 {
					continue
				}
				oh[p] = 0
				u := net.portsFlat[base+p]
				if checkHalt && net.haltSeg[u] != 0 {
					if count {
						b.trDrops++
					}
					if net.trackDead {
						b.dead = append(b.dead, net.deadSend(c, p, u))
					}
					continue
				}
				slot := sf[base+p]
				net.inInt[slot] = c.outInt[p]
				net.inHas[slot] = 1
				if !net.recvInt[u].Load() {
					net.recvInt[u].Store(true)
				}
			}
			c.nInts = 0
		}
		c.sentAny = false
	}
	b.senders = b.senders[:0]
}

// count adds c's staged messages to the batch's tracer counters, before
// delivery clears them: the messages by lane, and their words (one per
// int, len(rec) per record) with the largest message's.
//
//deltacolor:hotpath
//deltacolor:coordinator
func (b *batch) count(c *Ctx) {
	b.trInts += c.nInts
	b.trRecs += c.nRecs
	if c.nInts > 0 {
		b.trWords += int64(c.nInts)
		b.trMaxWords = max(b.trMaxWords, 1)
	}
	if c.nRecs > 0 {
		for _, rec := range c.out {
			b.trWords += int64(rec.n)
			b.trMaxWords = max(b.trMaxWords, int64(rec.n))
		}
	}
}

// deadSend is the record of c's send on port p to u, a halted or absent
// node (internal index).
func (net *Network) deadSend(c *Ctx, p int, u int32) DeadSend {
	return DeadSend{From: c.id, Port: p, To: net.toExt(int(u)), Round: net.rounds + 1, HaltRound: max(int(net.haltSeg[u]), 0)}
}

// Accountant aggregates rounds across the phases of a composite algorithm.
// With StartSpans it additionally collects a nested wall-time timeline
// (see trace.go); the flat phase list below is unaffected by spans, so
// round accounting stays byte-identical with tracing on or off.
type Accountant struct {
	phases []PhaseStat
	spans  *spanState // non-nil between StartSpans and FinishSpans
}

// PhaseStat records the round cost of one named phase.
type PhaseStat struct {
	Name   string
	Rounds int
}

// Charge adds rounds under the given phase name. When span collection is
// active, the charge also becomes a leaf span under the innermost open
// span, carrying the wall time and engine messages since the previous
// charge or span boundary.
func (a *Accountant) Charge(name string, rounds int) {
	a.phases = append(a.phases, PhaseStat{Name: name, Rounds: rounds})
	if a.spans != nil {
		a.chargeSpan(name, rounds)
	}
}

// Total returns the summed rounds over all phases.
func (a *Accountant) Total() int {
	t := 0
	for _, p := range a.phases {
		t += p.Rounds
	}
	return t
}

// Phases returns a copy of the per-phase breakdown.
func (a *Accountant) Phases() []PhaseStat {
	return append([]PhaseStat(nil), a.phases...)
}

// String renders the breakdown, e.g. "linial:5 + layers:12 = 17".
func (a *Accountant) String() string {
	s := ""
	for i, p := range a.phases {
		if i > 0 {
			s += " + "
		}
		s += fmt.Sprintf("%s:%d", p.Name, p.Rounds)
	}
	return fmt.Sprintf("%s = %d", s, a.Total())
}
