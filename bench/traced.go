package main

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"deltacolor"
	"deltacolor/graph"
	"deltacolor/internal/brooks"
	"deltacolor/internal/core"
	"deltacolor/internal/dist"
	"deltacolor/internal/gallai"
	"deltacolor/local"
	"deltacolor/verify"
)

// namedPhases are the pipeline phases (top-level children of
// Result.Span) reported by name: the ones that hold nearly all of a call
// on some workload. Every other top-level span is folded into "other", so
// the phase shares of a call always add up.
var namedPhases = []string{"dcc-removal", "shatter", "B", "decompose", "layers", "repair", "other"}

// layerReps and layerBudget bound the direct calls into single layers:
// each runs up to layerReps times, fewer once layerBudget is spent, and
// its median is reported.
const (
	layerReps   = 3
	layerBudget = 2 * time.Second
)

// samples collects one value per traced call for each per-layer metric.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// runTraced attributes the workload's calls to layers. Calls 0, 1, ...
// (the timed run's seeds) run until the budget is spent; each runs once
// untraced and once under a full round tracer, and the two colorings must
// match. The traced call's pipeline spans are matched against the
// tracer's round records by time window (see attribute), a churn step is
// replayed on a copy split into its public steps (see probe), and direct
// calls into the central layers run on the workload's graph afterwards.
func runTraced(w workload, seed int64, budget time.Duration, quick bool) (*result, error) {
	inst, err := w.setup(seed, quick)
	if err != nil {
		return nil, fmt.Errorf("%s setup: %w", w.name, err)
	}
	tr := local.NewTracer(local.TraceFull, local.DefaultRingCap)
	res := newResult()
	per := samples{}
	var untracedWalls, tracedWalls, refs []float64
	start := time.Now()
	for i := int64(0); i == 0 || time.Since(start) < budget; i++ {
		s := seed + i
		res.Attempted++
		refs = append(refs, seconds(refKernel()))
		g, pre := inst.current()

		// The untraced twin of this call. A churn call mutates the
		// instance, so it is replayed on a copy by the probe instead.
		var want uint64
		var pb *probeResult
		if pre != nil {
			if pb, err = probe(g, pre, s); err != nil {
				return nil, fmt.Errorf("%s call %d: %w", w.name, i, err)
			}
			want = pb.sum
			untracedWalls = append(untracedWalls, seconds(pb.churn+pb.recolor))
		} else {
			t0 := time.Now()
			out, err := inst.call(s)
			untracedWalls = append(untracedWalls, seconds(time.Since(t0)))
			if err != nil {
				return nil, fmt.Errorf("%s untraced call %d: %w", w.name, i, err)
			}
			want = checksum(out.colors)
		}

		tr.Reset()
		local.SetDefaultTracer(tr)
		t0 := tr.Now()
		out, err := inst.call(s)
		wall := tr.Now() - t0
		local.SetDefaultTracer(nil)
		if err == nil {
			g, _ = inst.current()
			err = verify.DeltaColoring(g, out.colors, out.delta)
		}
		if err != nil {
			return nil, fmt.Errorf("%s traced call %d: %w", w.name, i, err)
		}
		if got := checksum(out.colors); got != want {
			return nil, fmt.Errorf("%s call %d: traced coloring %016x differs from untraced %016x", w.name, i, got, want)
		}
		tracedWalls = append(tracedWalls, seconds(wall))
		if pb == nil {
			if pb, err = probe(g, out.colors, s); err != nil {
				return nil, fmt.Errorf("%s call %d: %w", w.name, i, err)
			}
		}

		root := out.span
		if root == nil {
			// Recolor has no spans: the whole call is one unattributed window.
			root = &local.Span{Name: "call", StartNanos: int64(t0), DurNanos: int64(wall)}
		}
		if err := traceCall(per, tr, root, wall); err != nil {
			return nil, fmt.Errorf("%s call %d: %w", w.name, i, err)
		}
		pb.record(per)
	}

	g, _ := inst.current()
	directLayers(per, g, seed)
	for name, xs := range per {
		res.set(name, perLayerUnit(name), median(xs))
	}
	res.set("trace.overhead_ratio", "ratio", median(tracedWalls)/median(untracedWalls)-1)
	res.set("host.ref_loop_s", "s", median(refs))
	res.Correct = true
	return res, nil
}

// traceCall records one traced call's engine counters and its phase
// attribution, after checking that the tracer saw every round.
func traceCall(per samples, tr *local.Tracer, root *local.Span, wall time.Duration) error {
	c := tr.Counters()
	rounds := tr.Rounds()
	if int64(len(rounds)) != c.Rounds {
		return fmt.Errorf("tracer ring wrapped: %d of %d rounds recorded", len(rounds), c.Rounds)
	}
	phases, gap, gapRounds, err := attribute(root, rounds)
	if err != nil {
		return err
	}
	var nodeRounds int64
	for _, r := range rounds {
		nodeRounds += int64(r.Live)
	}
	engine := c.StepNanos + c.DeliverNanos
	dur := float64(root.DurNanos)
	for _, name := range namedPhases {
		p := phases[name]
		per.add("phase."+name+".wall_share", float64(p.wall)/dur)
		per.add("phase."+name+".engine_share", float64(p.engine)/dur)
		per.add("phase."+name+".central_share", float64(p.wall-p.engine)/dur)
		per.add("phase."+name+".rounds_charged", float64(p.charged))
		per.add("phase."+name+".rounds_executed", float64(p.executed))
	}
	per.add("phase.unattributed_s", float64(gap)/1e9)
	per.add("phase.unattributed_rounds", float64(gapRounds))
	per.add("call.wall_s", seconds(wall))
	per.add("call.central_s", seconds(wall)-float64(engine)/1e9)
	per.add("local.step_s", float64(c.StepNanos)/1e9)
	per.add("local.deliver_s", float64(c.DeliverNanos)/1e9)
	per.add("local.rounds_executed", float64(c.Rounds))
	per.add("local.runs", float64(c.Runs))
	per.add("local.messages", float64(c.Messages()))
	per.add("local.boxed_messages", float64(c.BoxedMessages))
	per.add("local.node_rounds", float64(nodeRounds))
	per.add("local.ns_per_node_round", float64(engine)/float64(max(nodeRounds, 1)))
	return nil
}

// phaseStat is one phase's share of a traced call.
type phaseStat struct {
	wall, engine      int64 // ns
	charged, executed int   // LOCAL rounds charged by the spans, engine rounds run
}

// attribute splits a call's root span into its top-level phases. A
// phase's engine time is the step+deliver time of the tracer rounds that
// start inside its window; its central time is the rest of its wall time.
// The part of the root window no phase covers is returned as the gap,
// with the rounds that ran in it. It fails when phases overlap or leave
// the root, or when a round falls outside the root window, since the
// numbers would then not add up to the call.
func attribute(root *local.Span, rounds []local.RoundTrace) (phases map[string]*phaseStat, gap int64, gapRounds int, err error) {
	phases = map[string]*phaseStat{}
	for _, name := range namedPhases {
		phases[name] = &phaseStat{}
	}
	end := root.StartNanos + root.DurNanos
	inside := func(r local.RoundTrace, from, to int64) bool { return r.StartNanos >= from && r.StartNanos < to }
	assigned := make([]bool, len(rounds))
	covered, sum, cursor := int64(0), int64(0), root.StartNanos
	kids := slices.Clone(root.Children)
	slices.SortStableFunc(kids, func(a, b *local.Span) int { return cmp.Compare(a.StartNanos, b.StartNanos) })
	for _, k := range kids {
		name := k.Name
		if !slices.Contains(namedPhases, name) {
			name = "other"
		}
		p := phases[name]
		from, to := k.StartNanos, k.StartNanos+k.DurNanos
		p.wall += k.DurNanos
		p.charged += k.Rounds
		sum += k.DurNanos
		covered += max(0, min(to, end)-max(from, cursor))
		cursor = max(cursor, to)
		for i, r := range rounds {
			if inside(r, from, to) {
				assigned[i] = true
				p.engine += r.StepNanos + r.DeliverNanos
				p.executed++
			}
		}
	}
	gap = root.DurNanos - covered
	for i, r := range rounds {
		if assigned[i] {
			continue
		}
		if !inside(r, root.StartNanos, end) {
			return nil, 0, 0, fmt.Errorf("engine round %d.%d starts outside the call's root span", r.Run, r.Round)
		}
		gapRounds++
	}
	if diff := sum + gap - root.DurNanos; math.Abs(float64(diff)) > 0.01*float64(root.DurNanos) {
		return nil, 0, 0, fmt.Errorf("phases (%d ns) + gap (%d ns) differ from the root span (%d ns) by more than 1%%", sum, gap, root.DurNanos)
	}
	return phases, gap, gapRounds, nil
}

// probeResult is one churn step replayed on a copy and split into
// Recolor's public steps.
type probeResult struct {
	build, churn, recolor, conflictSet, repair, check time.Duration
	repairAlloc                                       uint64
	batches, fixed, rounds                            int
	sum                                               uint64 // checksum of Recolor's coloring
}

// probe copies g, applies the churn step of seed to the copy through a
// fresh network, and restores the coloring twice from the same state: once
// with deltacolor.Recolor, once step by step (ConflictSet, uncolor,
// brooks.RepairHoles, verify.DeltaColoring). The two colorings must be
// identical, or the per-step numbers would describe a different program.
func probe(g *graph.G, colors []int, seed int64) (*probeResult, error) {
	pb := &probeResult{}
	delta := g.MaxDegree()
	h := g.Clone()
	t0 := time.Now()
	net := local.NewNetwork(h, seed)
	pb.build = time.Since(t0)
	t0 = time.Now()
	if err := swapEdges(net, rand.New(rand.NewSource(seed)), swapCount(h)); err != nil {
		return nil, err
	}
	pb.churn = time.Since(t0)

	whole := slices.Clone(colors)
	t0 = time.Now()
	if _, err := deltacolor.Recolor(h, whole, delta, seed); err != nil {
		return nil, fmt.Errorf("probe recolor: %w", err)
	}
	pb.recolor = time.Since(t0)
	pb.sum = checksum(whole)

	split := slices.Clone(colors)
	t0 = time.Now()
	conflicts := deltacolor.ConflictSet(h, split, delta)
	pb.conflictSet = time.Since(t0)
	for _, v := range conflicts {
		split[v] = -1
	}
	if len(conflicts) > 0 {
		a0 := heapAllocs()
		t0 = time.Now()
		rep, err := brooks.RepairHoles(h, split, conflicts, delta, seed)
		pb.repair = time.Since(t0)
		pb.repairAlloc = heapAllocs() - a0
		if err != nil {
			return nil, fmt.Errorf("probe repair: %w", err)
		}
		pb.batches, pb.fixed, pb.rounds = len(rep.Batches), rep.Fixed, rep.TotalRounds()
	}
	t0 = time.Now()
	err := verify.DeltaColoring(h, split, delta)
	pb.check = time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("probe split: %w", err)
	}
	if got := checksum(split); got != pb.sum {
		return nil, fmt.Errorf("split Recolor coloring %016x differs from Recolor's %016x", got, pb.sum)
	}
	return pb, nil
}

func (pb *probeResult) record(per samples) {
	per.add("local.build_s", seconds(pb.build))
	per.add("local.churn_s", seconds(pb.churn))
	per.add("deltacolor.recolor_s", seconds(pb.recolor))
	per.add("deltacolor.conflict_set_s", seconds(pb.conflictSet))
	per.add("brooks.repair_s", seconds(pb.repair))
	per.add("brooks.repair_alloc_mb", mib(pb.repairAlloc))
	per.add("brooks.batches", float64(pb.batches))
	per.add("brooks.fixed", float64(pb.fixed))
	per.add("brooks.rounds", float64(pb.rounds))
	per.add("verify.check_s", seconds(pb.check))
}

// directLayers times the central layers' public entry points on g, with
// the parameters the pipelines pass them.
func directLayers(per samples, g *graph.G, seed int64) {
	n, delta := g.N(), g.MaxDegree()
	var dccs, misRounds int
	layer(per, "gallai.select_dccs", true, func() {
		d, _, _ := gallai.SelectDCCs(g, core.RandOptions{}.AutoParams(n, delta).R)
		dccs = len(d)
	})
	per.add("gallai.dccs", float64(dccs))
	layer(per, "core.ruling_set", true, func() { core.DetRulingSetCompute(g, nil, 6*brooks.SearchRadius(n, delta)+3) })
	layer(per, "core.check_nice", false, func() { _, _ = core.CheckNice(g, 3) })
	layer(per, "dist.decompose", false, func() { dist.Decompose(g, nil, 1/math.Log(float64(n+2)), seed) })
	nets := make([]*local.Network, layerReps)
	for i := range nets {
		nets[i] = local.NewNetwork(g, seed)
	}
	rep := 0
	layer(per, "dist.mis", false, func() {
		_, misRounds = dist.LubyMIS(nets[rep], nil)
		rep++
	})
	per.add("dist.mis_rounds", float64(misRounds))
}

// layer adds <name>_s (and <name>_alloc_mb when withAlloc) for up to
// layerReps runs of f.
func layer(per samples, name string, withAlloc bool, f func()) {
	start := time.Now()
	for rep := 0; rep < layerReps && (rep == 0 || time.Since(start) < layerBudget); rep++ {
		a0 := heapAllocs()
		t0 := time.Now()
		f()
		per.add(name+"_s", seconds(time.Since(t0)))
		if withAlloc {
			per.add(name+"_alloc_mb", mib(heapAllocs()-a0))
		}
	}
}
