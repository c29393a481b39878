package exp

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestAllExperimentsQuick smoke-runs every experiment in quick mode: no
// panics, non-empty tables, markdown renders, a document exactly for the
// measured experiments, and no gate unless the config arms one.
func TestAllExperimentsQuick(t *testing.T) {
	if len(Experiments) != 17 {
		t.Fatalf("got %d experiments, want 17", len(Experiments))
	}
	measured := map[string]string{"E12": "runtime", "E14": "locality", "E15": "overhead", "E16": "churn"}
	seen := map[string]bool{}
	for _, e := range Experiments {
		rep := e.Run(Config{Quick: true, Seed: 1})
		tb := rep.Table
		if !strings.EqualFold(tb.ID, e.ID) || tb.Title == "" { // E7B prints as E7b
			t.Fatalf("experiment %s: table ID %q, title %q", e.ID, tb.ID, tb.Title)
		}
		if seen[tb.ID] {
			t.Fatalf("duplicate table ID %s", tb.ID)
		}
		seen[tb.ID] = true
		if len(tb.Rows) == 0 {
			t.Fatalf("table %s has no rows", tb.ID)
		}
		for _, row := range tb.Rows {
			if len(row) != len(tb.Header) {
				t.Fatalf("table %s: row width %d != header width %d", tb.ID, len(row), len(tb.Header))
			}
		}
		var buf bytes.Buffer
		tb.Markdown(&buf)
		out := buf.String()
		if !strings.Contains(out, tb.ID) || !strings.Contains(out, "|") {
			t.Fatalf("table %s markdown malformed:\n%s", tb.ID, out)
		}
		if rep.Name != measured[e.ID] || (rep.Doc != nil) != (rep.Name != "") {
			t.Fatalf("experiment %s: name %q, doc %T", e.ID, rep.Name, rep.Doc)
		}
		if rep.Doc != nil && !rep.Doc.header().Quick {
			t.Fatalf("experiment %s: quick run's document says quick=false", e.ID)
		}
		if rep.Gate != nil {
			t.Fatalf("experiment %s: gate armed without -strict or a baseline", e.ID)
		}
	}
}

// TestStrictArmsGates: a strict-gated experiment carries its gate only
// under -strict, and the gate checks the run's own document.
func TestStrictArmsGates(t *testing.T) {
	doc := &LocalityReport{Header: Header{Schema: LocalitySchema}}
	var checked *LocalityReport
	run := strictGated("locality", func(Config) *LocalityReport { return doc },
		func(rep *LocalityReport) error { checked = rep; return nil })
	if rep := run(Config{}); rep.Gate != nil || rep.Doc != Doc(doc) || rep.Name != "locality" {
		t.Fatalf("without -strict: gate armed %v, doc %v, name %q", rep.Gate != nil, rep.Doc, rep.Name)
	}
	rep := run(Config{Strict: true})
	if rep.Gate == nil {
		t.Fatal("-strict did not arm the gate")
	}
	if err := rep.Gate(); err != nil || checked != doc {
		t.Fatalf("gate = %v, checked %p, want %p", err, checked, doc)
	}
}

// TestCheckedInReports reads every checked-in BENCH_*.json through the
// shared reader, re-encodes it byte for byte, and runs its gate (E12's
// delta gate against itself). The reader rejects each file under another
// document's schema.
func TestCheckedInReports(t *testing.T) {
	rt, loc, ovh, churn := &RuntimeReport{}, &LocalityReport{}, &OverheadReport{}, &ChurnReport{}
	cases := []struct {
		file, schema string
		doc          Doc
		gate         func() error
	}{
		{"BENCH_runtime.json", RuntimeSchema, rt, func() error { return CompareRuntime(rt, rt) }},
		{"BENCH_locality.json", LocalitySchema, loc, func() error { return LocalityGate(loc) }},
		{"BENCH_overhead.json", OverheadSchema, ovh, func() error { return OverheadGate(ovh) }},
		{"BENCH_churn.json", ChurnSchema, churn, func() error { return ChurnGate(churn) }},
	}
	for i, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("..", "..", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			if err := ReadDoc(bytes.NewReader(data), tc.schema, tc.doc); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := WriteDoc(&buf, tc.doc); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), data) {
				t.Fatalf("%s does not round-trip byte for byte", tc.file)
			}
			if err := tc.gate(); err != nil {
				t.Fatalf("gate: %v", err)
			}
			other := cases[(i+1)%len(cases)]
			if err := ReadDoc(bytes.NewReader(data), other.schema, &RuntimeReport{}); err == nil {
				t.Fatalf("%s read as %s without error", tc.file, other.schema)
			}
		})
	}
	if err := ReadDoc(strings.NewReader(`{"schema":"bogus/v9"}`), RuntimeSchema, &RuntimeReport{}); err == nil {
		t.Fatal("unknown schema must be rejected")
	}
}

func TestFitSlope(t *testing.T) {
	// y = 3x + 1 exactly.
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 4, 7, 10}
	if got := fitSlope(xs, ys); math.Abs(got-3) > 1e-9 {
		t.Fatalf("fitSlope = %v, want 3", got)
	}
	if got := fitSlope([]float64{1}, []float64{1}); !math.IsNaN(got) {
		t.Fatalf("fitSlope on single point = %v, want NaN", got)
	}
	if got := fitSlope([]float64{2, 2}, []float64{1, 5}); !math.IsNaN(got) {
		t.Fatalf("fitSlope on vertical data = %v, want NaN", got)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{2, 8}); math.Abs(got-4) > 1e-9 {
		t.Fatalf("geomean(2,8) = %v, want 4", got)
	}
	if got := geomean(nil); !math.IsNaN(got) {
		t.Fatalf("geomean(nil) = %v, want NaN", got)
	}
}

func TestTableMarkdownShape(t *testing.T) {
	tb := &Table{ID: "EX", Title: "demo", Header: []string{"a", "b"}}
	tb.AddRow("1", "2")
	tb.AddNote("note %d", 7)
	var buf bytes.Buffer
	tb.Markdown(&buf)
	out := buf.String()
	for _, want := range []string{"### EX — demo", "| a | b |", "| 1 | 2 |", "> note 7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("markdown missing %q:\n%s", want, out)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tb := &Table{ID: "EX", Title: "demo", Header: []string{"a", "b"}}
	tb.AddRow("1", "2,3") // comma must be quoted
	var buf bytes.Buffer
	if err := tb.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "a,b\n") || !strings.Contains(out, `1,"2,3"`) {
		t.Fatalf("csv malformed:\n%s", out)
	}
}
