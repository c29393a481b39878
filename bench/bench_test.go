package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

func readSpec(t *testing.T) spec {
	t.Helper()
	var sp spec
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &sp); err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestQuickRunsEmitDeclaredMetrics runs every workload at quick size, timed
// and traced, and checks that each run is correct and reports exactly the
// metrics BENCHMARK.json declares for it, with the declared units.
func TestQuickRunsEmitDeclaredMetrics(t *testing.T) {
	sp := readSpec(t)
	var declared []string
	for _, w := range sp.Workloads {
		declared = append(declared, w.Name)
	}
	var defined []string
	for _, w := range workloads {
		defined = append(defined, w.name)
	}
	if !slices.Equal(declared, defined) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark defines %v", declared, defined)
	}
	units := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range sp.EndToEnd {
		units[false][m.Name] = m.Unit
	}
	for _, m := range sp.PerLayer {
		units[true][m.Name] = m.Unit
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			run := runTimed
			if traced {
				run = runTraced
			}
			res, err := run(w, 1, 100*time.Millisecond, true)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := units[traced]
			for name, m := range res.Metrics {
				if !valid.MatchString(name) {
					t.Errorf("%s: metric name %q has characters outside [A-Za-z0-9_.-]", w.name, name)
				}
				if unit, ok := want[name]; !ok {
					t.Errorf("%s traced=%v: undeclared metric %s", w.name, traced, name)
				} else if unit != m.Unit {
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", w.name, name, m.Unit, unit)
				}
			}
			for name := range want {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("%s traced=%v: declared metric %s not emitted", w.name, traced, name)
				}
			}
		}
	}
}

// TestCompare checks that identical result files compare as ok and that a
// median call slower by more than wall_p50_ref's bound is flagged as a
// regression.
func TestCompare(t *testing.T) {
	sp := readSpec(t)
	build := func(scale float64) string {
		all := &runs{Workloads: map[string]*workloadRuns{}}
		for _, w := range workloads {
			wr := &workloadRuns{}
			for pass := 0; pass < 3; pass++ {
				res := newResult()
				for _, m := range sp.EndToEnd {
					v := 1 + 0.001*float64(pass)
					if m.Name == "wall_p50_ref" {
						v *= scale
					}
					res.set(m.Name, m.Unit, v)
				}
				wr.Timed = append(wr.Timed, res)
			}
			all.Workloads[w.name] = wr
		}
		data, err := json.Marshal(all)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "runs.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	specPath := filepath.Join("..", "BENCHMARK.json")
	old := build(1)
	slower := 0.0
	for _, m := range sp.EndToEnd {
		if m.Name == "wall_p50_ref" {
			slower = 1 + 1.2*m.Bound
		}
	}

	var out bytes.Buffer
	regressed, err := compareFiles(&out, specPath, old, build(1))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")[1:]
	if regressed || len(lines) != len(workloads)*len(sp.EndToEnd) {
		t.Fatalf("identical files: regressed=%v, %d rows:\n%s", regressed, len(lines), out.String())
	}
	for _, l := range lines {
		if !strings.HasSuffix(l, " ok") {
			t.Errorf("identical files: %s", l)
		}
	}

	out.Reset()
	regressed, err = compareFiles(&out, specPath, old, build(slower))
	if err != nil {
		t.Fatal(err)
	}
	if !regressed {
		t.Fatalf("wall_p50_ref ×%g not flagged:\n%s", slower, out.String())
	}
	for _, l := range strings.Split(out.String(), "\n") {
		if strings.Contains(l, " wall_p50_ref ") && !strings.HasSuffix(l, " regressed") {
			t.Errorf("wall_p50_ref ×%g: %s", slower, l)
		}
	}
}

// TestQuantileMatchesPython pins quantile to the values Python's
// statistics.quantiles(xs, n=4) and statistics.median give.
func TestQuantileMatchesPython(t *testing.T) {
	for _, tc := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1, 4, 2}, 1.25, 3, 4.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{0.3, 0.1, 0.7, 0.2, 0.9, 0.4, 0.5}, 0.2, 0.4, 0.7},
	} {
		got := []float64{quantile(tc.xs, 0.25), median(tc.xs), quantile(tc.xs, 0.75)}
		for i, want := range []float64{tc.q1, tc.m, tc.q3} {
			if math.Abs(got[i]-want) > 1e-12 {
				t.Errorf("%v: quartiles %v, want %v %v %v", tc.xs, got, tc.q1, tc.m, tc.q3)
				break
			}
		}
	}
}
