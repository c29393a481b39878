package local

// Round-level tracing and the span layer.
//
// The round engine's end-of-run aggregates (RunStats, Accountant round
// sums) say what a run cost, not where the cost went. The types here turn
// the engine into something profileable:
//
//   - Tracer hooks into runRounds and records, per round, the wall time of
//     the two engine phases (step, deliver), the live-node and sender
//     counts, the staged messages split by lane (int vs record), and
//     halt/drop events — into a preallocated ring buffer, so tracing a
//     run allocates nothing per round. A disabled tracer costs one nil
//     check per phase; the zero-allocs-per-round guarantee of the int lane
//     holds with tracing off (and on — the ring is preallocated).
//   - The span layer extends Accountant into a nested timeline
//     (pipeline → phase → primitive): StartSpans opens a root span,
//     Begin/End group charges, and every Charge becomes a leaf span
//     carrying the rounds charged, the wall time since the previous mark
//     (exactly the computation that produced the charge), and the engine
//     messages counted by the tracer in that window.
//
// Exporters for both (Chrome trace-event JSON for Perfetto, compact JSONL)
// live in traceexport.go.

import (
	"sync/atomic"
	"time"
)

// TraceLevel selects how much the tracer records.
type TraceLevel int32

const (
	// TraceOff records nothing (the zero value; equivalent to no tracer).
	TraceOff TraceLevel = iota
	// TraceCounters accumulates the cumulative counters (rounds, messages
	// by lane, message words, drops, halts) without per-round records or
	// timing — the cost is a few integer adds per sender during delivery,
	// plus a pass over the ports of a sender that staged records.
	TraceCounters
	// TraceFull additionally records one RoundTrace per engine round into
	// the ring buffer, with per-phase wall times.
	TraceFull
)

// RoundTrace is one engine round as the tracer saw it.
type RoundTrace struct {
	// Run is the tracer-scoped run sequence number: a composite pipeline
	// executes many engine runs (one per primitive invocation) against
	// one tracer, and Run tells their rounds apart.
	Run   int `json:"run"`
	Round int `json:"round"` // 1-based round within the run
	// Live is the number of nodes stepped in this round; Senders the
	// number that had staged messages delivered at its start; Halts the
	// number that halted during this round's step sweep.
	Live    int `json:"live"`
	Senders int `json:"senders"`
	Halts   int `json:"halts"`
	// IntMsgs / RecordMsgs split the round's staged messages by delivery
	// lane (single int32 words vs []int32 records); Drops counts the
	// subset staged for already-halted receivers (never delivered).
	IntMsgs    int `json:"int_msgs"`
	RecordMsgs int `json:"record_msgs"`
	Drops      int `json:"drops"`
	// StartNanos is the offset of the round's delivery phase from the
	// tracer epoch; DeliverNanos and StepNanos are the wall times of the
	// two engine phases (delivery is 0 when no node sent).
	StartNanos   int64 `json:"start_ns"`
	DeliverNanos int64 `json:"deliver_ns"`
	StepNanos    int64 `json:"step_ns"`
}

// Counters is the tracer's cumulative view across every run it
// observed — the counters snapshot a monitoring endpoint would poll.
type Counters struct {
	Runs           int64 `json:"runs"`
	Rounds         int64 `json:"rounds"`
	IntMessages    int64 `json:"int_messages"`
	RecordMessages int64 `json:"record_messages"`
	// BoxedMessages is always 0: the runtime has no boxed lane. The field
	// is kept only because bench/traced.go reads it.
	BoxedMessages int64 `json:"boxed_messages"`
	Drops         int64 `json:"drops"` // staged for halted receivers
	Halts         int64 `json:"halts"`
	// Words counts the message words staged, drops included: one per
	// int-lane message, len(rec) per record, 4 bytes each on the wire.
	// MaxWords is the largest single message's. Together they measure a
	// run against the CONGEST model's O(log n)-bit budget (E11).
	Words    int64 `json:"words"`
	MaxWords int64 `json:"max_words"`
	// Phase wall times, accumulated only at TraceFull (counters-only
	// tracing takes no timestamps).
	StepNanos    int64 `json:"step_ns"`
	DeliverNanos int64 `json:"deliver_ns"`
	// Fault-injection counters (fault.go), accumulated only when a
	// FaultPlan is attached to the traced network: messages destroyed by
	// the plan (drops plus crash-window drops), duplicated deliveries,
	// and delayed deliveries.
	FaultDrops  int64 `json:"fault_drops,omitempty"`
	FaultDups   int64 `json:"fault_dups,omitempty"`
	FaultDelays int64 `json:"fault_delays,omitempty"`
}

// Messages returns the total staged messages across both lanes.
func (c Counters) Messages() int64 { return c.IntMessages + c.RecordMessages }

// Tracer records engine activity. Attach one to a network with
// Network.SetTracer, or process-wide with SetDefaultTracer (networks pick
// the default up at construction). A Tracer is written only by the
// coordinating goroutine of a run, so one tracer may observe many networks
// as long as their runs do not overlap — exactly the shape of the
// composite pipelines, which run primitives sequentially on the networks
// they build internally.
type Tracer struct {
	level TraceLevel
	epoch time.Time

	ring []RoundTrace // preallocated; wraps, keeping the most recent records
	head int          // next write position
	size int          // valid records (<= len(ring))
	run  int          // run sequence number

	c Counters

	last *RoundTrace // record whose Halts is finalized at the next fold
}

// DefaultRingCap is the ring size NewTracer uses when capacity <= 0:
// enough for every engine round of a typical composite run, small enough
// that an always-on tracer costs a few megabytes.
const DefaultRingCap = 1 << 16

// NewTracer returns a tracer recording at the given level. capacity sizes
// the round ring buffer (TraceFull only; <= 0 selects DefaultRingCap).
// The epoch — the zero point of every recorded timestamp — is the moment
// of creation.
func NewTracer(level TraceLevel, capacity int) *Tracer {
	t := &Tracer{level: level, epoch: time.Now()}
	if level >= TraceFull {
		if capacity <= 0 {
			capacity = DefaultRingCap
		}
		t.ring = make([]RoundTrace, capacity)
	}
	return t
}

// Level reports the tracer's recording level.
func (t *Tracer) Level() TraceLevel { return t.level }

// Now returns the current offset from the tracer epoch — the timebase
// every RoundTrace and Span timestamp shares.
func (t *Tracer) Now() time.Duration { return time.Since(t.epoch) }

// Counters returns a snapshot of the cumulative counters.
func (t *Tracer) Counters() Counters { return t.c }

// Rounds returns the recorded rounds, oldest first (at most the ring
// capacity; earlier rounds of a long run are overwritten).
func (t *Tracer) Rounds() []RoundTrace {
	out := make([]RoundTrace, t.size)
	start := t.head - t.size
	for i := range out {
		out[i] = t.ring[(start+i+len(t.ring))%len(t.ring)]
	}
	return out
}

// Reset clears the ring and the counters (the epoch is preserved, so
// records before and after a reset stay on one timeline).
func (t *Tracer) Reset() {
	t.head, t.size = 0, 0
	t.run = 0
	t.c = Counters{}
	t.last = nil
}

// beginRun opens a new engine run on the tracer.
func (t *Tracer) beginRun() {
	t.run++
	t.c.Runs++
	t.last = nil
}

// foldHalts attributes halts discovered at a fold point: they happened
// during the previous step sweep, i.e. in the round recorded last (or the
// init segment, which has no record).
//
//deltacolor:hotpath
func (t *Tracer) foldHalts(halts int) {
	if halts == 0 {
		return
	}
	t.c.Halts += int64(halts)
	if t.last != nil {
		t.last.Halts += halts
	}
}

// record appends one round to the ring and the counters. The Halts field
// is finalized later by foldHalts.
//
//deltacolor:hotpath
func (t *Tracer) record(r RoundTrace) {
	t.c.Rounds++
	t.c.IntMessages += int64(r.IntMsgs)
	t.c.RecordMessages += int64(r.RecordMsgs)
	t.c.Drops += int64(r.Drops)
	t.c.StepNanos += r.StepNanos
	t.c.DeliverNanos += r.DeliverNanos
	if t.ring == nil {
		t.last = nil
		return
	}
	r.Run = t.run
	t.ring[t.head] = r
	t.last = &t.ring[t.head]
	t.head = (t.head + 1) % len(t.ring)
	if t.size < len(t.ring) {
		t.size++
	}
}

// countRound folds a counters-only round (no ring record, no timing).
//
//deltacolor:hotpath
func (t *Tracer) countRound(ints, recs, drops int) {
	t.c.Rounds++
	t.c.IntMessages += int64(ints)
	t.c.RecordMessages += int64(recs)
	t.c.Drops += int64(drops)
}

// countFaults folds one round's fault-injection counters (drained by the
// coordinator from the batch kernels in fault.go).
func (t *Tracer) countFaults(drops, dups, delays int64) {
	t.c.FaultDrops += drops
	t.c.FaultDups += dups
	t.c.FaultDelays += delays
}

// defaultTracer is the package-wide tracer networks created afterwards
// attach (see SetDefaultTracer).
var defaultTracer atomic.Pointer[Tracer]

// SetDefaultTracer installs tr as the tracer every subsequently
// constructed Network attaches (nil uninstalls). The composite pipelines
// build networks internally — one per primitive — so this is the hook
// that lets a single tracer observe a whole deltacolor.Color run without
// threading it through every constructor. Like SetStrictDeadSends it is a
// process-wide default, intended for tools (cmd/deltacolor -trace) and
// harnesses, not for concurrent tracing of independent runs.
func SetDefaultTracer(tr *Tracer) { defaultTracer.Store(tr) }

// DefaultTracer returns the tracer installed by SetDefaultTracer, or nil.
func DefaultTracer() *Tracer { return defaultTracer.Load() }

// SetTracer attaches tr to this network for subsequent runs (overriding
// the default the network picked up at construction; nil detaches). Must
// not be called during a run.
func (net *Network) SetTracer(tr *Tracer) { net.tracer = tr }

// Tracer returns the tracer attached to this network, or nil.
func (net *Network) Tracer() *Tracer { return net.tracer }

// ---------------------------------------------------------------------------
// Span layer.

// Span is one named segment of a composite algorithm's timeline: the root
// span is the pipeline, its children are the pipeline's phases, and the
// leaves are the primitive invocations the Accountant charged. Timestamps
// share the tracer's epoch when one was attached (so spans align with the
// engine's RoundTrace records in an exported timeline).
type Span struct {
	Name string `json:"name"`
	// StartNanos is the offset from the epoch; DurNanos the wall time.
	// For a leaf created by Charge, the wall time is the span since the
	// previous mark — exactly the computation (central and simulated)
	// that produced the charge.
	StartNanos int64 `json:"start_ns"`
	DurNanos   int64 `json:"dur_ns"`
	// Rounds is the charged LOCAL rounds (leaves carry their charge;
	// interior spans the sum of their subtree, rolled up by FinishSpans).
	Rounds int `json:"rounds"`
	// Messages is the number of engine messages staged in the span's
	// window, from the tracer's lane counters; 0 without a counting
	// tracer.
	Messages int64   `json:"messages,omitempty"`
	Children []*Span `json:"children,omitempty"`
}

// Walk visits the span and every descendant in pre-order.
func (s *Span) Walk(f func(*Span, int)) { s.walk(f, 0) }

func (s *Span) walk(f func(*Span, int), depth int) {
	f(s, depth)
	for _, c := range s.Children {
		c.walk(f, depth+1)
	}
}

// spanState is the Accountant's span-collection state, allocated only by
// StartSpans so accountants without spans stay a bare phase list.
type spanState struct {
	root  *Span
	open  []*Span // stack of open interior spans; open[0] == root
	tr    *Tracer // message counters + shared epoch; may be nil
	start time.Time
	mark  time.Time // end of the last leaf/boundary
	msgs  int64     // tracer message count at mark
}

// now returns the offset of t from the span epoch (the tracer's when one
// is attached, else the StartSpans instant).
func (st *spanState) now(t time.Time) int64 {
	if st.tr != nil {
		return t.Sub(st.tr.epoch).Nanoseconds()
	}
	return t.Sub(st.start).Nanoseconds()
}

func (st *spanState) trMsgs() int64 {
	if st.tr == nil {
		return 0
	}
	return st.tr.c.Messages()
}

// StartSpans turns on span collection: a root span named name is opened,
// and every subsequent Charge records a leaf under the innermost open
// span. tr, when non-nil, supplies the shared timebase and the per-span
// message counts (it should be the tracer the run's networks use).
// Calling StartSpans again replaces any earlier collection.
func (a *Accountant) StartSpans(name string, tr *Tracer) {
	now := time.Now()
	st := &spanState{tr: tr, start: now, mark: now}
	st.root = &Span{Name: name, StartNanos: st.now(now)}
	st.open = []*Span{st.root}
	st.msgs = st.trMsgs()
	a.spans = st
}

// Begin opens a nested span under the innermost open span. Every Charge
// until the matching End lands inside it. A no-op without StartSpans.
func (a *Accountant) Begin(name string) {
	st := a.spans
	if st == nil {
		return
	}
	now := time.Now()
	sp := &Span{Name: name, StartNanos: st.now(now)}
	parent := st.open[len(st.open)-1]
	parent.Children = append(parent.Children, sp)
	st.open = append(st.open, sp)
	st.mark = now
	st.msgs = st.trMsgs()
}

// End closes the innermost span opened by Begin (the root stays open
// until FinishSpans). A no-op without StartSpans or with no open Begin.
func (a *Accountant) End() {
	st := a.spans
	if st == nil || len(st.open) <= 1 {
		return
	}
	now := time.Now()
	sp := st.open[len(st.open)-1]
	sp.DurNanos = st.now(now) - sp.StartNanos
	st.open = st.open[:len(st.open)-1]
	st.mark = now
	st.msgs = st.trMsgs()
}

// chargeSpan records the leaf span for one Charge.
func (a *Accountant) chargeSpan(name string, rounds int) {
	st := a.spans
	if st == nil {
		return
	}
	now := time.Now()
	msgs := st.trMsgs()
	sp := &Span{
		Name:       name,
		StartNanos: st.now(st.mark),
		DurNanos:   now.Sub(st.mark).Nanoseconds(),
		Rounds:     rounds,
		Messages:   msgs - st.msgs,
	}
	parent := st.open[len(st.open)-1]
	parent.Children = append(parent.Children, sp)
	st.mark = now
	st.msgs = msgs
}

// FinishSpans closes every open span, rolls interior rounds and messages
// up from the leaves, and returns the root (nil when StartSpans was never
// called). The accountant can keep charging afterwards, but new charges
// no longer record spans.
func (a *Accountant) FinishSpans() *Span {
	st := a.spans
	if st == nil {
		return nil
	}
	now := time.Now()
	for i := len(st.open) - 1; i >= 0; i-- {
		sp := st.open[i]
		sp.DurNanos = st.now(now) - sp.StartNanos
	}
	a.spans = nil
	rollup(st.root)
	return st.root
}

// rollup sums rounds and messages of interior spans from their subtrees.
func rollup(s *Span) (rounds int, msgs int64) {
	for _, c := range s.Children {
		r, m := rollup(c)
		rounds += r
		msgs += m
	}
	if len(s.Children) > 0 {
		s.Rounds += rounds
		s.Messages += msgs
	}
	return s.Rounds, s.Messages
}
