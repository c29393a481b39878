// Deterministic fault injection for the LOCAL runtime.
//
// A FaultPlan attached to a Network perturbs the delivery path with
// message drops, duplications, bounded delays, and node crash windows —
// all decided by pure hashes of (plan seed, run sequence, round, edge
// slot), so a faulty run is exactly reproducible across worker counts,
// batch sizes and repeated executions, and two networks built the same
// way observe the same fault schedule.
//
// The healthy engine pays exactly one nil-pointer check per batch for
// this file to exist: doBatch dispatches to the faulty kernels below only
// when a plan is attached, so the zero-allocations-per-round guarantee of
// the fast path is untouched (TestTracerZeroAllocsPerRound and the E15
// overhead gate both run with fault == nil).
//
// Fault model (each event is counted by the network's tracer, when one
// that counts is attached; see Counters):
//
//   - Drop: a staged message vanishes (FaultDrops).
//   - Delay: a staged message is postponed 1..MaxDelay rounds
//     (FaultDelays), then injected into the receiver's inbox lane before
//     that round's regular delivery; a fresh message on the same
//     (receiver, port) overwrites the stale injection on either lane,
//     preserving the one-message-per-edge-per-round rule. Of two
//     injections due on one slot in one round, an int beats a record. A
//     delayed message whose receiver halts first, or whose due round lies
//     beyond the end of the run, is lost (DelayedDrops).
//   - Duplicate: the message is delivered normally and additionally
//     re-injected in the following round (FaultDups), where it can be
//     lost like a delayed message.
//   - Crash window: the node freezes for rounds [From, To): its program
//     does not step (OfflineSteps), anything delivered or injected to it
//     is dropped (CrashDrops), and its inbox is wiped. At round To it
//     resumes with its program state intact — the single-process runtime
//     models a process that stops participating, not one that loses
//     memory. To == 0 means the node never comes back.
//
// Because dropped or delayed messages can stall a protocol forever, any
// plan that enables a fault must set RoundLimit: the engine force-halts
// the run after that many rounds (RunStats.RoundLimited), so every
// faulty execution terminates. Node programs that panic on fault-mangled
// input are force-halted instead of killing the process (NodePanics);
// detection and repair then happen above the runtime (deltacolor.Recolor).
package local

import (
	"fmt"
	"math"
	"sync/atomic"
)

// CrashWindow takes one node offline for the half-open round interval
// [From, To). From is 1-based and must be >= 1 (nodes always execute
// their init segment); To == 0 means the node never restarts. Windows
// naming nodes outside the network are ignored, so one plan can be
// shared by networks of different sizes (quotient networks included).
type CrashWindow struct {
	Node int // external node ID
	From int // first offline round (1-based)
	To   int // first round back online; 0 = never
}

// FaultPlan is a deterministic fault schedule. The zero value injects
// nothing. Probabilities are per staged message; every decision is a pure
// hash of (Seed, run sequence, round, directed-edge slot), independent of
// the network's own randomness seed, so the fault schedule and the
// protocol's coin flips vary independently.
//
// FromRound/ToRound bound the rounds in which message faults (drop,
// duplicate, delay) fire: 1-based, inclusive, zero meaning unbounded on
// that side. Crash windows carry their own bounds.
//
// A plan must Validate before use; SetFaultPlan and SetDefaultFaultPlan
// enforce that. Plans are treated as immutable once attached.
type FaultPlan struct {
	Seed      int64   // fault-schedule seed (independent of the network seed)
	DropProb  float64 // per-message drop probability
	DupProb   float64 // per-message duplicate probability
	DelayProb float64 // per-message delay probability
	MaxDelay  int     // delays are uniform in 1..MaxDelay rounds

	FromRound int // first round message faults fire in (0 = from the start)
	ToRound   int // last round message faults fire in (0 = no end)

	Crashes []CrashWindow

	// RoundLimit force-halts a run after this many rounds. Required
	// whenever the plan injects any fault; a plan with only RoundLimit
	// set is a plain round budget.
	RoundLimit int
}

// active reports whether the plan injects any fault at all.
func (p *FaultPlan) active() bool {
	return p.DropProb > 0 || p.DupProb > 0 || p.DelayProb > 0 || len(p.Crashes) > 0
}

// Validate checks the plan's parameters.
func (p *FaultPlan) Validate() error {
	for _, pr := range []struct {
		name string
		v    float64
	}{{"DropProb", p.DropProb}, {"DupProb", p.DupProb}, {"DelayProb", p.DelayProb}} {
		if math.IsNaN(pr.v) || pr.v < 0 || pr.v > 1 {
			return fmt.Errorf("fault plan: %s = %v outside [0,1]", pr.name, pr.v)
		}
	}
	if p.MaxDelay < 0 {
		return fmt.Errorf("fault plan: MaxDelay = %d is negative", p.MaxDelay)
	}
	if p.DelayProb > 0 && p.MaxDelay < 1 {
		return fmt.Errorf("fault plan: DelayProb > 0 requires MaxDelay >= 1")
	}
	if p.FromRound < 0 || p.ToRound < 0 {
		return fmt.Errorf("fault plan: negative round bound [%d,%d]", p.FromRound, p.ToRound)
	}
	if p.ToRound > 0 && p.FromRound > p.ToRound {
		return fmt.Errorf("fault plan: FromRound %d > ToRound %d", p.FromRound, p.ToRound)
	}
	for _, w := range p.Crashes {
		if w.Node < 0 {
			return fmt.Errorf("fault plan: crash window names negative node %d", w.Node)
		}
		if w.From < 1 {
			return fmt.Errorf("fault plan: crash window for node %d starts at round %d (must be >= 1)", w.Node, w.From)
		}
		if w.To != 0 && w.To <= w.From {
			return fmt.Errorf("fault plan: crash window for node %d is empty: [%d,%d)", w.Node, w.From, w.To)
		}
	}
	if p.RoundLimit < 0 {
		return fmt.Errorf("fault plan: RoundLimit = %d is negative", p.RoundLimit)
	}
	if p.active() && p.RoundLimit < 1 {
		return fmt.Errorf("fault plan: a plan that injects faults must set RoundLimit (faults can stall protocols forever)")
	}
	return nil
}

// defaultFaultPlan is the package default installed on new networks; see
// SetDefaultFaultPlan.
var defaultFaultPlan atomic.Pointer[FaultPlan]

// SetDefaultFaultPlan installs a process-wide fault plan picked up by
// every Network created afterwards (exactly like SetDefaultTracer), or
// removes it when p is nil. The plan is validated here so the pickup in
// NewNetwork cannot fail. Pass nil around fault-free sections — the
// repair engine's internal networks, for example, must not inherit the
// plan that broke the run they are repairing (deltacolor.Recolor does
// this automatically).
func SetDefaultFaultPlan(p *FaultPlan) error {
	if p != nil {
		if err := p.Validate(); err != nil {
			return err
		}
	}
	defaultFaultPlan.Store(p)
	return nil
}

// DefaultFaultPlan returns the currently installed package default (nil
// when none).
func DefaultFaultPlan() *FaultPlan { return defaultFaultPlan.Load() }

// SetFaultPlan attaches a fault plan to this network (nil detaches). Must
// not be called during a run; the plan applies to subsequent runs.
func (net *Network) SetFaultPlan(p *FaultPlan) error {
	if p != nil {
		if err := p.Validate(); err != nil {
			return err
		}
	}
	net.fault = p
	net.crashW = nil
	if p != nil && len(p.Crashes) > 0 {
		net.crashW = make(map[int][]CrashWindow, len(p.Crashes))
		for _, w := range p.Crashes {
			net.crashW[w.Node] = append(net.crashW[w.Node], w)
		}
	}
	return nil
}

// FaultPlan returns the attached plan (nil when none).
func (net *Network) FaultPlan() *FaultPlan { return net.fault }

// pendingFault is a delayed or duplicated message waiting to be injected
// into its receiver's inbox lane at the start of round due.
type pendingFault struct {
	due   int     // 1-based round whose delivery injects the message
	node  int32   // internal receiver index
	slot  int     // receiver's inbox lane slot
	isInt bool    // int lane vs record lane
	val   int32   // int payload
	rec   recSlot // record payload
}

// Hash salts separating the independent fault decisions on one message.
const (
	saltDrop     = 0x9ddf_ea08_eb38_2d69
	saltDup      = 0x2545_f491_4f6c_dd1d
	saltDelay    = 0xda94_2042_e4dd_58b5
	saltDelayLen = 0x8b72_e734_0b87_0ae5
)

// mix64 is the splitmix64 finalizer: a bijective avalanche mix.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// faultBits derives the decision bits for one (message, fault kind). It
// is a pure function of its arguments — no RNG stream, no iteration
// order — which is what makes the schedule independent of batching and
// worker scheduling.
func faultBits(seed uint64, runSeq int64, round, slot int, salt uint64) uint64 {
	x := seed + salt
	x = mix64(x + uint64(runSeq)*0x9e3779b97f4a7c15)
	x = mix64(x + uint64(round)*0xc2b2ae3d27d4eb4f + uint64(slot)*0x165667b19e3779f9)
	return mix64(x)
}

// u01 maps hash bits to a uniform float64 in [0, 1).
func u01(bits uint64) float64 { return float64(bits>>11) * (1.0 / (1 << 53)) }

// offlineAt reports whether the node with external ID ext is inside a
// crash window at the given 1-based round.
func (net *Network) offlineAt(ext, round int) bool {
	for _, w := range net.crashW[ext] {
		if round >= w.From && (w.To == 0 || round < w.To) {
			return true
		}
	}
	return false
}

// stepBatchFaulty is stepBatch with crash windows and panic containment:
// it wraps the segment and leaves inbox clearing, sender collection and
// live-list compaction to stepBatch. It is deliberately not on the hot
// path: a network with a fault plan attached trades throughput for the
// fault model.
//
//deltacolor:coordinator
func (net *Network) stepBatchFaulty(fn func(*Ctx) bool, b *batch) {
	hasCrash := net.crashW != nil
	net.stepBatch(func(c *Ctx) bool {
		if hasCrash && net.offlineAt(c.id, net.rounds) {
			// Frozen: the program does not execute this round, and
			// anything already in the inbox is lost with the outage.
			b.ftOffline++
			return true
		}
		return net.stepNodeRecover(fn, c, b)
	}, b)
}

// stepNodeRecover runs one node segment, converting a panic into a halt.
// Under fault injection a protocol may legitimately observe states its
// author never considered (a missing announcement, a duplicated token);
// a node that crashes on such input is force-halted and counted, so the
// run terminates and the recovery layer above can repair the damage.
//
//deltacolor:coordinator
func (net *Network) stepNodeRecover(fn func(*Ctx) bool, c *Ctx, b *batch) (cont bool) {
	defer func() {
		if r := recover(); r != nil {
			b.ftPanics++
			cont = false
		}
	}()
	return fn(c)
}

// deliverBatchFaulty is deliverBatch with the fault model applied per
// staged message, on both lanes in one port sweep: receiver-offline drop,
// then drop, then delay, then delivery plus optional duplication. At most
// one fault fires per message. Protocol-level dead sends (halted
// receivers) are counted exactly as in the healthy kernel.
//
//deltacolor:coordinator
func (net *Network) deliverBatchFaulty(b *batch) {
	fp := net.fault
	round := net.rounds + 1
	dropP, dupP, delayP := 0.0, 0.0, 0.0
	if round >= fp.FromRound && (fp.ToRound == 0 || round <= fp.ToRound) {
		dropP, dupP, delayP = fp.DropProb, fp.DupProb, fp.DelayProb
	}
	seed := uint64(fp.Seed)
	rs := net.runSeq
	maxDelay := uint64(fp.MaxDelay)
	hasCrash := net.crashW != nil
	checkHalt := !net.noHalts
	count := net.countMsgs
	for _, id := range b.senders {
		c := &net.ctxs[id]
		base := net.off[id]
		if count {
			b.count(c)
		}
		for pt, rec := range c.out {
			isInt := c.outHas[pt] != 0
			if rec.p == nil && !isInt {
				continue
			}
			c.out[pt], c.outHas[pt] = recSlot{}, 0
			u := net.portsFlat[base+pt]
			if checkHalt && net.haltSeg[u] != 0 {
				b.dropDead(net, c, pt, u)
				continue
			}
			if hasCrash && net.offlineAt(net.toExt(int(u)), round) {
				b.ftCrashIn++
				continue
			}
			e := base + pt
			if dropP > 0 && u01(faultBits(seed, rs, round, e, saltDrop)) < dropP {
				b.ftDrops++
				continue
			}
			pm := pendingFault{node: u, slot: int(net.slotFlat[e]), isInt: isInt, val: c.outInt[pt], rec: rec}
			if delayP > 0 && u01(faultBits(seed, rs, round, e, saltDelay)) < delayP {
				pm.due = round + 1 + int(faultBits(seed, rs, round, e, saltDelayLen)%maxDelay)
				b.pend = append(b.pend, pm)
				b.ftDelays++
				continue
			}
			net.put(pm)
			if dupP > 0 && u01(faultBits(seed, rs, round, e, saltDup)) < dupP {
				pm.due = round + 1
				b.pend = append(b.pend, pm)
				b.ftDups++
			}
		}
		c.nRecs, c.nInts = 0, 0
		c.sentAny = false
	}
	b.senders = b.senders[:0]
}

// put writes a message into its receiver's inbox slot and clears the
// other lane's entry there, so a fresh message replaces a stale injected
// one whichever lane either used: a slot holds one message.
func (net *Network) put(pm pendingFault) {
	if pm.isInt {
		net.inInt[pm.slot] = pm.val
		net.inHas[pm.slot] = 1
		net.inRec[pm.slot] = recSlot{}
		net.recvInt[pm.node].Store(true)
	} else {
		net.inRec[pm.slot] = pm.rec
		net.inHas[pm.slot] = 0
		net.recvRec[pm.node].Store(true)
	}
}

// injectPending writes every due delayed/duplicated message into its
// receiver's inbox lane. Runs on the coordinator before the round's
// regular delivery phase, so fresh messages overwrite stale injections
// slot by slot. Of two injections due on one slot, the int wins: a record
// is not injected over an int. Receivers that halted or are offline lose
// the message, and a counting tracer counts it (fc; nil when none).
//
//deltacolor:coordinator
func (net *Network) injectPending(fc *Counters) {
	round := net.rounds + 1
	var halted, offline int64
	kept := net.pendFault[:0]
	for _, pm := range net.pendFault {
		if pm.due != round {
			kept = append(kept, pm)
			continue
		}
		if net.haltSeg[pm.node] != 0 {
			halted++
			continue
		}
		if net.crashW != nil && net.offlineAt(net.toExt(int(pm.node)), round) {
			offline++
			continue
		}
		if pm.isInt || net.inHas[pm.slot] == 0 {
			net.put(pm)
		}
	}
	net.pendFault = kept
	if fc != nil {
		fc.DelayedDrops += halted
		fc.CrashDrops += offline
	}
}

// drainFault moves the batches' pending messages into the network's list
// and their fault counters into fc, a counting tracer's counters (with fc
// nil they are only reset). Coordinator-only, once per round.
//
//deltacolor:coordinator
func (net *Network) drainFault(fc *Counters) {
	for i := range net.batches {
		b := &net.batches[i]
		if len(b.pend) > 0 {
			net.pendFault = append(net.pendFault, b.pend...)
			b.pend = b.pend[:0]
		}
		if fc != nil {
			fc.FaultDrops += int64(b.ftDrops)
			fc.FaultDups += int64(b.ftDups)
			fc.FaultDelays += int64(b.ftDelays)
			fc.CrashDrops += int64(b.ftCrashIn)
			fc.OfflineSteps += int64(b.ftOffline)
			fc.NodePanics += int64(b.ftPanics)
		}
		b.ftDrops, b.ftDups, b.ftDelays, b.ftCrashIn, b.ftOffline, b.ftPanics = 0, 0, 0, 0, 0, 0
	}
}

// finishFaultRun closes out fault accounting at the end of a run: any
// message still awaiting injection is lost.
//
//deltacolor:coordinator
func (net *Network) finishFaultRun(fc *Counters) {
	net.drainFault(fc)
	if fc != nil {
		fc.DelayedDrops += int64(len(net.pendFault))
	}
	net.pendFault = net.pendFault[:0]
}
