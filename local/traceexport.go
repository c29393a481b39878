package local

// Trace exporters: Chrome trace-event JSON (loads in chrome://tracing and
// https://ui.perfetto.dev) and a compact JSONL form that round-trips
// losslessly (WriteTraceJSONL → ReadTraceJSONL → WriteTraceJSONL is
// byte-identical), for downstream tooling that wants to diff or aggregate
// traces rather than view them.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// TraceDump bundles everything one traced run produced: the span timeline
// of the pipeline (nil when spans were not collected), the engine's
// per-round records (ring contents, oldest first; empty below TraceFull),
// and the cumulative counters.
type TraceDump struct {
	Span     *Span        `json:"span,omitempty"`
	Rounds   []RoundTrace `json:"rounds,omitempty"`
	Counters Counters     `json:"counters"`
}

// Dump snapshots the tracer into a TraceDump with the given span root
// (may be nil).
func (t *Tracer) Dump(root *Span) *TraceDump {
	return &TraceDump{Span: root, Rounds: t.Rounds(), Counters: t.Counters()}
}

// ---------------------------------------------------------------------------
// JSONL.

// traceLine is one line of the JSONL trace stream. Exactly one of the
// payload fields is set, per Type.
type traceLine struct {
	Type     string      `json:"type"` // "counters" | "span" | "round"
	Counters *Counters   `json:"counters,omitempty"`
	Span     *Span       `json:"span,omitempty"`
	Round    *RoundTrace `json:"round,omitempty"`
}

// WriteTraceJSONL writes the dump as JSON Lines: a counters line, the span
// tree as a single nested line (when present), then one line per recorded
// round. The encoding is canonical — parsing and re-emitting a stream
// reproduces it byte for byte (the schema round-trip test pins this).
func WriteTraceJSONL(w io.Writer, d *TraceDump) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	c := d.Counters
	if err := enc.Encode(traceLine{Type: "counters", Counters: &c}); err != nil {
		return err
	}
	if d.Span != nil {
		if err := enc.Encode(traceLine{Type: "span", Span: d.Span}); err != nil {
			return err
		}
	}
	for i := range d.Rounds {
		if err := enc.Encode(traceLine{Type: "round", Round: &d.Rounds[i]}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTraceJSONL parses a stream written by WriteTraceJSONL.
func ReadTraceJSONL(r io.Reader) (*TraceDump, error) {
	d := &TraceDump{}
	dec := json.NewDecoder(r)
	sawCounters := false
	for {
		var ln traceLine
		if err := dec.Decode(&ln); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("trace jsonl: %w", err)
		}
		switch ln.Type {
		case "counters":
			if ln.Counters == nil {
				return nil, fmt.Errorf("trace jsonl: counters line without counters")
			}
			d.Counters = *ln.Counters
			sawCounters = true
		case "span":
			if ln.Span == nil {
				return nil, fmt.Errorf("trace jsonl: span line without span")
			}
			d.Span = ln.Span
		case "round":
			if ln.Round == nil {
				return nil, fmt.Errorf("trace jsonl: round line without round")
			}
			d.Rounds = append(d.Rounds, *ln.Round)
		default:
			return nil, fmt.Errorf("trace jsonl: unknown line type %q", ln.Type)
		}
	}
	if !sawCounters {
		return nil, fmt.Errorf("trace jsonl: missing counters line")
	}
	return d, nil
}

// ---------------------------------------------------------------------------
// Chrome trace events.

// chromeEvent is one entry of the trace-event format's traceEvents array
// (the subset Perfetto needs: complete events "X", counter events "C" and
// thread-name metadata "M"). Timestamps and durations are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

const (
	chromePid     = 1
	tidPipeline   = 1 // span timeline (pipeline → phase → primitive)
	tidEngine     = 2 // per-round engine slices
	tidCounters   = 3 // live-node / message counter tracks
	nanosPerMicro = 1e3
)

// WriteChromeTrace writes the dump in Chrome trace-event JSON. The span
// tree lands on a "pipeline" thread as nested complete events, the
// engine's rounds on an "engine" thread (one slice per round, with the
// phase split and lane counts in args), and two counter tracks expose
// live nodes and per-round messages over time. Open the file in
// https://ui.perfetto.dev or chrome://tracing.
func WriteChromeTrace(w io.Writer, d *TraceDump) error {
	var evs []chromeEvent
	meta := func(tid int, name string) {
		evs = append(evs, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: chromePid, Tid: tid,
			Args: map[string]any{"name": name},
		})
	}
	meta(tidPipeline, "pipeline")
	if len(d.Rounds) > 0 {
		meta(tidEngine, "engine rounds")
		meta(tidCounters, "engine counters")
	}

	if d.Span != nil {
		d.Span.Walk(func(s *Span, depth int) {
			evs = append(evs, chromeEvent{
				Name: s.Name, Ph: "X", Pid: chromePid, Tid: tidPipeline,
				Ts:  float64(s.StartNanos) / nanosPerMicro,
				Dur: float64(s.DurNanos) / nanosPerMicro,
				Args: map[string]any{
					"rounds":   s.Rounds,
					"messages": s.Messages,
					"depth":    depth,
				},
			})
		})
	}

	for i := range d.Rounds {
		r := &d.Rounds[i]
		evs = append(evs, chromeEvent{
			Name: fmt.Sprintf("run %d round %d", r.Run, r.Round),
			Ph:   "X", Pid: chromePid, Tid: tidEngine,
			Ts:  float64(r.StartNanos) / nanosPerMicro,
			Dur: float64(r.DeliverNanos+r.StepNanos) / nanosPerMicro,
			Args: map[string]any{
				"deliver_us":  float64(r.DeliverNanos) / nanosPerMicro,
				"step_us":     float64(r.StepNanos) / nanosPerMicro,
				"live":        r.Live,
				"senders":     r.Senders,
				"halts":       r.Halts,
				"int_msgs":    r.IntMsgs,
				"record_msgs": r.RecordMsgs,
				"drops":       r.Drops,
			},
		})
		ts := float64(r.StartNanos) / nanosPerMicro
		evs = append(evs, chromeEvent{
			Name: "live nodes", Ph: "C", Pid: chromePid, Tid: tidCounters, Ts: ts,
			Args: map[string]any{"live": r.Live},
		})
		evs = append(evs, chromeEvent{
			Name: "messages", Ph: "C", Pid: chromePid, Tid: tidCounters, Ts: ts,
			Args: map[string]any{"int": r.IntMsgs, "record": r.RecordMsgs},
		})
	}

	out := struct {
		TraceEvents []chromeEvent  `json:"traceEvents"`
		Metadata    map[string]any `json:"metadata,omitempty"`
	}{
		TraceEvents: evs,
		Metadata: map[string]any{
			"tool":     "deltacolor",
			"counters": d.Counters,
		},
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(out); err != nil {
		return err
	}
	return bw.Flush()
}
