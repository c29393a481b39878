// Package exp is the experiment harness: one runner per experiment
// (E1–E16: the paper's claims plus the runtime, repair-tail, locality,
// tracer-overhead and churn additions), listed once in Experiments. Each
// runner yields a Report whose table cmd/benchsuite prints; the measured
// experiments (E12, E14–E16) add a JSON document and its gate.
// bench_test.go runs the same list as testing.B benchmarks.
package exp

import (
	"deltacolor/local"

	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
)

// Config scales the experiments. The zero value selects the full-scale
// parameters; Quick shrinks every sweep to smoke-test size (used by -short
// tests and the benchmark harness's inner loop). Strict turns every late
// dead send — a message staged for a neighbor the sender could already
// have known was halted (see local.DeadSend) — into a panic via
// local.SetStrictDeadSends, so dead-send protocol regressions fail the
// harness — and CI — instead of surfacing in user runs; it also arms the
// gates of E14–E16. Baseline and MultiWorkerBaseline, when set, arm E12's
// delta gate (CompareRuntime) and multi-worker gate (CompareMultiWorker).
type Config struct {
	Quick  bool
	Seed   int64
	Strict bool

	Baseline, MultiWorkerBaseline *RuntimeReport
}

// install applies the config's process-wide settings. Every experiment
// runner calls it first, so a runner invoked directly (tests, benchsuite
// -only) still honors -strict.
func (c Config) install() {
	local.SetStrictDeadSends(c.Strict)
}

// Experiment is one entry of the suite.
type Experiment struct {
	ID  string
	Run func(Config) Report
}

// Experiments lists every experiment once, in cmd/benchsuite's print
// order: the table-only experiments, then the measured ones.
var Experiments = []Experiment{
	{"E1", tableOnly(E1SmallDelta)},
	{"E2", tableOnly(E2LargeDelta)},
	{"E3", tableOnly(E3Deterministic)},
	{"E4", tableOnly(E4Baseline)},
	{"E5", tableOnly(E5Expansion)},
	{"E6", tableOnly(E6Shattering)},
	{"E7", tableOnly(E7Brooks)},
	{"E7B", tableOnly(E7Adversarial)},
	{"E8", tableOnly(E8NetDec)},
	{"E9", tableOnly(E9Structure)},
	{"E10", tableOnly(E10Ablations)},
	{"E11", tableOnly(E11Congest)},
	{"E13", tableOnly(E13RepairTail)},
	{"E12", runtimeExperiment},
	{"E14", strictGated("locality", LocalityAblation, LocalityGate)},
	{"E15", strictGated("overhead", TracerOverhead, OverheadGate)},
	{"E16", strictGated("churn", ChurnRecovery, ChurnGate)},
}

func tableOnly(run func(Config) *Table) func(Config) Report {
	return func(cfg Config) Report { return Report{Table: run(cfg)} }
}

// strictGated wraps a measured experiment whose gate -strict arms; name
// is its document's BENCH_<name>.json stem.
func strictGated[D Doc](name string, run func(Config) D, gate func(D) error) func(Config) Report {
	return func(cfg Config) Report {
		doc := run(cfg)
		r := Report{Table: doc.Table(), Name: name, Doc: doc}
		if cfg.Strict {
			r.Gate = func() error { return gate(doc) }
		}
		return r
	}
}

// Report is what one experiment run yields. The measured experiments
// (E12, E14–E16) also carry their JSON document, which cmd/benchsuite
// writes as BENCH_<Name>.json, and the gate the Config armed; Gate is nil
// when nothing is armed.
type Report struct {
	Table *Table
	Name  string
	Doc   Doc
	Gate  func() error
}

// Header is the head every BENCH_*.json document embeds. RefScore is the
// host's reference-loop score (see ReferenceScore); only E12 measures it.
type Header struct {
	Schema     string  `json:"schema"`
	GoMaxProcs int     `json:"gomaxprocs"`
	Quick      bool    `json:"quick"`
	Seed       int64   `json:"seed"`
	RefScore   float64 `json:"ref_score,omitempty"`
}

func (h *Header) header() *Header { return h }

// docHeader starts a document of the given schema for a run under c.
func (c Config) docHeader(schema string) Header {
	return Header{Schema: schema, GoMaxProcs: runtime.GOMAXPROCS(0), Quick: c.Quick, Seed: c.Seed}
}

// Doc is a measured experiment's JSON document: a pointer to a report
// type that embeds Header and renders its table.
type Doc interface {
	header() *Header
	Table() *Table
}

// WriteDoc serializes doc in the layout of the checked-in BENCH_*.json
// files.
func WriteDoc(w io.Writer, doc Doc) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// ReadDoc decodes a document written by WriteDoc into doc, rejecting one
// whose schema is not the given one.
func ReadDoc(r io.Reader, schema string, doc Doc) error {
	if err := json.NewDecoder(r).Decode(doc); err != nil {
		return fmt.Errorf("%s report: %w", schema, err)
	}
	if got := doc.header().Schema; got != schema {
		return fmt.Errorf("report schema %q, want %q", got, schema)
	}
	return nil
}

// Table is one experiment's output: a titled grid of rows plus free-form
// notes (bound checks, fits, pass/fail summaries).
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddNote appends a formatted note.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// CSV renders the table in RFC 4180 CSV (header row first, notes
// omitted), for spreadsheet/plotting pipelines.
func (t *Table) CSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Markdown renders the table as GitHub-flavored markdown.
func (t *Table) Markdown(w io.Writer) {
	fmt.Fprintf(w, "### %s — %s\n\n", t.ID, t.Title)
	fmt.Fprintf(w, "| %s |\n", strings.Join(t.Header, " | "))
	seps := make([]string, len(t.Header))
	for i := range seps {
		seps[i] = "---"
	}
	fmt.Fprintf(w, "|%s|\n", strings.Join(seps, "|"))
	for _, row := range t.Rows {
		fmt.Fprintf(w, "| %s |\n", strings.Join(row, " | "))
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "\n> %s\n", n)
	}
	fmt.Fprintln(w)
}

// itoa and f2/f4 are tiny formatting helpers for table cells.
func itoa(x int) string      { return fmt.Sprintf("%d", x) }
func f2(x float64) string    { return fmt.Sprintf("%.2f", x) }
func f4(x float64) string    { return fmt.Sprintf("%.4f", x) }
func pow2(e int) string      { return fmt.Sprintf("2^%d", e) }
func loglog(n int) float64   { return math.Log2(math.Max(2, math.Log2(float64(n)))) }
func log2f(n int) float64    { return math.Log2(float64(n)) }
func ratio(a, b int) float64 { return float64(a) / math.Max(1, float64(b)) }

// fitSlope estimates the least-squares slope of y against x (both already
// transformed by the caller, e.g. log-log). Used to report empirical growth
// exponents next to the theorems' predictions.
func fitSlope(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return math.NaN()
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return math.NaN()
	}
	return (n*sxy - sx*sy) / den
}

// geomean returns the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}
