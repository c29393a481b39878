package local

import (
	"bytes"
	"encoding/json"
	"runtime/debug"
	"testing"
)

// uniformFlood is an int-lane broadcast protocol where every node halts
// in the same round, so the tracer's per-round accounting has exact
// expected values (unlike intFloodStepped's staggered halts).
func uniformFlood(rounds int) Stepped[int] {
	return Stepped[int]{
		Init: func(ctx *Ctx, s *int) bool {
			ctx.BroadcastInt(ctx.ID())
			return true
		},
		Step: func(ctx *Ctx, s *int) bool {
			sum := 0
			for p := 0; p < ctx.Degree(); p++ {
				if m, ok := ctx.RecvInt(p); ok {
					sum += m
				}
			}
			*s++
			if *s == rounds {
				return false
			}
			ctx.BroadcastInt(sum)
			return true
		},
	}
}

// tracedFloodRun runs the uniform flood on a 64-cycle with a tracer at
// the given level attached and returns the tracer.
func tracedFloodRun(t *testing.T, level TraceLevel, ringCap, rounds int) *Tracer {
	t.Helper()
	tr := NewTracer(level, ringCap)
	net := NewNetwork(cycleGraph(64), 1)
	net.SetTracer(tr)
	RunStepped(net, uniformFlood(rounds))
	return tr
}

func TestTracerCountersAndRounds(t *testing.T) {
	const rounds = 7
	tr := tracedFloodRun(t, TraceFull, 0, rounds)
	c := tr.Counters()
	if c.Runs != 1 {
		t.Fatalf("runs = %d, want 1", c.Runs)
	}
	// intFloodStepped(r): init broadcast + r step rounds (the last step
	// halts without sending).
	if c.Rounds != rounds {
		t.Fatalf("rounds = %d, want %d", c.Rounds, rounds)
	}
	// Every node broadcasts (degree 2) in init and in all but the final
	// step round: (rounds) sends per node overall, over the int lane.
	wantMsgs := int64(64 * 2 * rounds)
	if c.IntMessages != wantMsgs || c.RecordMessages != 0 || c.BoxedMessages != 0 {
		t.Fatalf("messages = int %d record %d boxed %d, want int %d only", c.IntMessages, c.RecordMessages, c.BoxedMessages, wantMsgs)
	}
	if c.Halts != 64 {
		t.Fatalf("halts = %d, want 64", c.Halts)
	}
	if c.StepNanos <= 0 {
		t.Fatalf("step nanos = %d, want > 0", c.StepNanos)
	}
	recs := tr.Rounds()
	if len(recs) != rounds {
		t.Fatalf("recorded rounds = %d, want %d", len(recs), rounds)
	}
	var ints, halts int
	for i, r := range recs {
		if r.Round != i+1 || r.Run != 1 {
			t.Fatalf("record %d = run %d round %d, want run 1 round %d", i, r.Run, r.Round, i+1)
		}
		if r.Live != 64 {
			t.Fatalf("record %d live = %d, want 64", i, r.Live)
		}
		ints += r.IntMsgs
		halts += r.Halts
	}
	if int64(ints) != wantMsgs {
		t.Fatalf("per-round int messages sum to %d, want %d", ints, wantMsgs)
	}
	if halts != 64 {
		t.Fatalf("per-round halts sum to %d, want 64", halts)
	}
}

func TestTracerCountersOnlyMatchesFull(t *testing.T) {
	co := tracedFloodRun(t, TraceCounters, 0, 5).Counters()
	full := tracedFloodRun(t, TraceFull, 0, 5).Counters()
	if co.Rounds != full.Rounds || co.IntMessages != full.IntMessages ||
		co.RecordMessages != full.RecordMessages || co.Drops != full.Drops || co.Halts != full.Halts {
		t.Fatalf("counters-only %+v disagrees with full %+v", co, full)
	}
	if co.StepNanos != 0 || co.DeliverNanos != 0 {
		t.Fatalf("counters-only took timestamps: %+v", co)
	}
	if rs := tracedFloodRun(t, TraceCounters, 0, 5).Rounds(); len(rs) != 0 {
		t.Fatalf("counters-only recorded %d rounds, want 0", len(rs))
	}
}

// mixedLanes stages on both lanes with staggered halts: in round r node v
// sends an int on ports with (v+p+r)%3 == 0 and a record of (v+p+r)%4
// words (empty ones included) on ports with (v+p+r)%3 == 1, until it
// halts after round rounds+v%3 without sending, writing the number of
// words it staged into out[ctx.ID()].
func mixedLanes(rounds int, out []int) Stepped[roundState[int]] {
	return roundProgram(func(ctx *Ctx, words *int, round int) bool {
		if round == rounds+ctx.ID()%3 {
			out[ctx.ID()] = *words
			return false
		}
		for p := 0; p < ctx.Degree(); p++ {
			switch k := ctx.ID() + p + round; k % 3 {
			case 0:
				ctx.SendInt(p, k)
				*words++
			case 1:
				ctx.Send(p, make([]int32, k%4))
				*words += k % 4
			}
		}
		return true
	})
}

// TestTracerCountsRecordLane checks the tracer's lane split against
// MessageStats on record traffic: the gather engine (records only) and a
// mixed-lane program with staggered halts, at both tracing levels.
// Per-round lane counts must sum to the cumulative counters, those must
// add up to MessageStats.Messages, counters-only must equal full, and
// the byte total must be exactly 4 per word staged.
func TestTracerCountsRecordLane(t *testing.T) {
	g := randomGraph(60, 0.08, 5)
	run := func(level TraceLevel, prog func(*Network) int) (Counters, []RoundTrace, MessageStats, int) {
		tr := NewTracer(level, 0)
		net := NewNetwork(g, 3)
		net.SetTracer(tr)
		net.EnableMessageStats()
		words := prog(net)
		return tr.Counters(), tr.Rounds(), *net.MessageStats(), words
	}
	gather := func(net *Network) int { GatherStepped(net, 3); return -1 }
	mixed := func(net *Network) int {
		out := make([]int, g.N())
		RunStepped(net, mixedLanes(4, out))
		words := 0
		for _, w := range out {
			words += w
		}
		return words
	}
	for name, prog := range map[string]func(*Network) int{"gather": gather, "mixed": mixed} {
		full, recs, st, words := run(TraceFull, prog)
		co, _, coSt, _ := run(TraceCounters, prog)
		var ints, records int
		for _, r := range recs {
			ints += r.IntMsgs
			records += r.RecordMsgs
		}
		if int64(ints) != full.IntMessages || int64(records) != full.RecordMessages {
			t.Errorf("%s: per-round lanes sum to int %d record %d, counters say %d and %d", name, ints, records, full.IntMessages, full.RecordMessages)
		}
		if full.RecordMessages == 0 || full.Messages() != int64(st.Messages) {
			t.Errorf("%s: tracer counted %d messages (%d records), MessageStats %d", name, full.Messages(), full.RecordMessages, st.Messages)
		}
		co.StepNanos, co.DeliverNanos = full.StepNanos, full.DeliverNanos
		if co != full || coSt != st {
			t.Errorf("%s: counters-only %+v / %+v disagrees with full %+v / %+v", name, co, coSt, full, st)
		}
		if full.BoxedMessages != 0 {
			t.Errorf("%s: BoxedMessages = %d, want 0", name, full.BoxedMessages)
		}
		if words >= 0 && (full.IntMessages == 0 || st.TotalBytes != 4*words) {
			t.Errorf("%s: TotalBytes = %d for %d words staged (%d ints), want 4 per word", name, st.TotalBytes, words, full.IntMessages)
		}
	}
}

func TestTracerRingWraps(t *testing.T) {
	tr := tracedFloodRun(t, TraceFull, 4, 10)
	recs := tr.Rounds()
	if len(recs) != 4 {
		t.Fatalf("ring kept %d records, want 4", len(recs))
	}
	for i, r := range recs {
		if want := 7 + i; r.Round != want {
			t.Fatalf("ring[%d].Round = %d, want %d (most recent kept)", i, r.Round, want)
		}
	}
	if tr.Counters().Rounds != 10 {
		t.Fatalf("counters saw %d rounds, want all 10 despite the ring", tr.Counters().Rounds)
	}
}

func TestDefaultTracerPickup(t *testing.T) {
	tr := NewTracer(TraceCounters, 0)
	SetDefaultTracer(tr)
	defer SetDefaultTracer(nil)
	net := NewNetwork(cycleGraph(16), 1)
	if net.Tracer() != tr {
		t.Fatalf("network did not pick up the default tracer")
	}
	RunStepped(net, uniformFlood(3))
	if got := tr.Counters().Rounds; got != 3 {
		t.Fatalf("default tracer counted %d rounds, want 3", got)
	}
	SetDefaultTracer(nil)
	if NewNetwork(cycleGraph(8), 1).Tracer() != nil {
		t.Fatalf("uninstalling the default tracer did not detach new networks")
	}
}

// TestTracerZeroAllocsPerRound extends the int-path allocation gate to an
// *enabled* tracer: the ring is preallocated and the counters are plain
// fields, so full tracing must also stage and deliver without per-round
// allocations.
func TestTracerZeroAllocsPerRound(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	g := cycleGraph(512)
	measure := func(rounds int) float64 {
		return testing.AllocsPerRun(3, func() {
			tr := NewTracer(TraceFull, 256)
			net := NewNetwork(g, 1)
			net.SetTracer(tr)
			RunStepped(net, intFloodStepped(rounds, make([]int, g.N())))
		})
	}
	short, long := measure(5), measure(105)
	perRound := (long - short) / 100
	if perRound > 0.05 {
		t.Fatalf("full tracing allocates %.2f allocs/round (short=%.0f long=%.0f), want 0", perRound, short, long)
	}
}

func TestSpanNestingAndRollup(t *testing.T) {
	a := &Accountant{}
	a.StartSpans("pipeline", nil)
	a.Begin("phase-a")
	a.Charge("p1", 3)
	a.Charge("p2", 4)
	a.End()
	a.Charge("p3", 5)
	root := a.FinishSpans()
	if root == nil || root.Name != "pipeline" {
		t.Fatalf("root = %+v", root)
	}
	if len(root.Children) != 2 {
		t.Fatalf("root children = %d, want 2 (phase-a, p3)", len(root.Children))
	}
	pa := root.Children[0]
	if pa.Name != "phase-a" || len(pa.Children) != 2 {
		t.Fatalf("phase-a = %+v", pa)
	}
	if pa.Rounds != 7 {
		t.Fatalf("phase-a rolled up %d rounds, want 7", pa.Rounds)
	}
	if root.Rounds != 12 {
		t.Fatalf("root rolled up %d rounds, want 12", root.Rounds)
	}
	// Spans must not perturb the phase list the goldens pin.
	want := "p1:3;p2:4;p3:5;"
	got := ""
	for _, p := range a.Phases() {
		got += p.Name + ":" + itoaT(p.Rounds) + ";"
	}
	if got != want {
		t.Fatalf("phases = %q, want %q", got, want)
	}
	if a.FinishSpans() != nil {
		t.Fatalf("second FinishSpans returned a root, want nil")
	}
}

func itoaT(x int) string {
	return string([]byte{byte('0' + x)})
}

func TestTraceJSONLRoundTrip(t *testing.T) {
	tr := tracedFloodRun(t, TraceFull, 0, 6)
	a := &Accountant{}
	a.StartSpans("pipeline", tr)
	a.Begin("phase")
	a.Charge("prim", 6)
	a.End()
	d := tr.Dump(a.FinishSpans())

	var first bytes.Buffer
	if err := WriteTraceJSONL(&first, d); err != nil {
		t.Fatalf("write: %v", err)
	}
	parsed, err := ReadTraceJSONL(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	var second bytes.Buffer
	if err := WriteTraceJSONL(&second, parsed); err != nil {
		t.Fatalf("re-write: %v", err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("round trip not byte-identical:\n--- first ---\n%s\n--- second ---\n%s", first.Bytes(), second.Bytes())
	}
	if parsed.Counters != d.Counters {
		t.Fatalf("counters drifted: %+v vs %+v", parsed.Counters, d.Counters)
	}
	if len(parsed.Rounds) != len(d.Rounds) {
		t.Fatalf("rounds drifted: %d vs %d", len(parsed.Rounds), len(d.Rounds))
	}
	if parsed.Span == nil || parsed.Span.Name != "pipeline" || parsed.Span.Children[0].Children[0].Name != "prim" {
		t.Fatalf("span tree drifted: %+v", parsed.Span)
	}
}

func TestChromeTraceWellFormed(t *testing.T) {
	tr := tracedFloodRun(t, TraceFull, 0, 4)
	a := &Accountant{}
	a.StartSpans("pipeline", tr)
	a.Charge("prim", 4)
	d := tr.Dump(a.FinishSpans())

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, d); err != nil {
		t.Fatalf("write: %v", err)
	}
	var out struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	var spans, roundsX, meta, counters int
	for _, e := range out.TraceEvents {
		switch e.Ph {
		case "M":
			meta++
		case "C":
			counters++
		case "X":
			if e.Tid == tidEngine {
				roundsX++
			} else {
				spans++
			}
			if e.Ts < 0 || e.Dur < 0 {
				t.Fatalf("event %q has negative timing: ts=%v dur=%v", e.Name, e.Ts, e.Dur)
			}
		default:
			t.Fatalf("unexpected phase %q", e.Ph)
		}
	}
	if spans != 2 { // pipeline + prim
		t.Fatalf("span events = %d, want 2", spans)
	}
	if roundsX != 4 {
		t.Fatalf("round events = %d, want 4", roundsX)
	}
	if meta == 0 || counters == 0 {
		t.Fatalf("missing metadata (%d) or counter (%d) events", meta, counters)
	}
}
