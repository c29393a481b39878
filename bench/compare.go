package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"
)

// runs is every sample of a multi-workload invocation, as -out saves it.
type runs struct {
	Seed      int64                    `json:"seed"`
	Seconds   float64                  `json:"seconds"`
	Quick     bool                     `json:"quick"`
	Workloads map[string]*workloadRuns `json:"workloads"`
}

type workloadRuns struct {
	Timed  []*result `json:"timed"`
	Traced []*result `json:"traced"`
}

// runAll runs the named workloads (all when list is empty) timed and
// traced, each in its own child process, one at a time. Pass p uses seed
// seed+p; passes interleave the workloads so slow host periods spread
// across all of them.
func runAll(list string, seed int64, secs float64, quick bool, passes int, out string) error {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	if list != "" {
		names = strings.Split(list, ",")
		for _, n := range names {
			if _, err := findWorkload(n); err != nil {
				return err
			}
		}
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	all := &runs{Seed: seed, Seconds: secs, Quick: quick, Workloads: map[string]*workloadRuns{}}
	for p := 0; p < passes; p++ {
		for _, name := range names {
			wr := all.Workloads[name]
			if wr == nil {
				wr = &workloadRuns{}
				all.Workloads[name] = wr
			}
			for _, trace := range []string{"0", "1"} {
				args := []string{"-workload", name, "-seed", strconv.FormatInt(seed+int64(p), 10),
					"-seconds", strconv.FormatFloat(secs, 'g', -1, 64), "-trace", trace}
				if quick {
					args = append(args, "-quick")
				}
				fmt.Fprintf(os.Stderr, "pass %d: %s trace=%s\n", p, name, trace)
				res, err := runChild(exe, args)
				if err != nil {
					return fmt.Errorf("%s trace=%s: %w", name, trace, err)
				}
				if trace == "0" {
					wr.Timed = append(wr.Timed, res)
				} else {
					wr.Traced = append(wr.Traced, res)
				}
			}
		}
	}
	printMedians(os.Stdout, names, all)
	if out == "" {
		return nil
	}
	data, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(data, '\n'), 0o644)
}

// runChild runs the benchmark binary for one workload and parses the
// result from the last line of its output.
func runChild(exe string, args []string) (*result, error) {
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("parse result line: %w", err)
	}
	return &res, nil
}

func printMedians(w io.Writer, names []string, all *runs) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmedian\tunit\truns")
	for _, name := range names {
		wr := all.Workloads[name]
		for _, set := range [][]*result{wr.Timed, wr.Traced} {
			for _, m := range metricNames(set) {
				xs := values(set, m)
				fmt.Fprintf(tw, "%s\t%s\t%.6g\t%s\t%d\n", name, m, median(xs), set[0].Metrics[m].Unit, len(xs))
			}
		}
	}
	tw.Flush()
}

func metricNames(set []*result) []string {
	var names []string
	for m := range set[0].Metrics {
		names = append(names, m)
	}
	slices.Sort(names)
	return names
}

func values(set []*result, name string) []float64 {
	var xs []float64
	for _, r := range set {
		if m, ok := r.Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// spec is BENCHMARK.json's declaration of workloads and metrics.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles prints, for each workload and end-to-end metric, the old
// and new medians, their ratio, the bound and a verdict, and reports
// whether any metric regressed. A metric whose run-to-run spread (IQR as a
// share of the median) exceeds its bound in either file is unresolved,
// unless every new run reads better than every old run.
func compareFiles(w io.Writer, specPath, oldPath, newPath string) (regressed bool, err error) {
	var sp spec
	var old, cur runs
	for path, v := range map[string]any{specPath: &sp, oldPath: &old, newPath: &cur} {
		if err := readJSON(path, v); err != nil {
			return false, err
		}
	}
	var names []string
	for name := range old.Workloads {
		if cur.Workloads[name] != nil {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return false, fmt.Errorf("%s and %s share no workload", oldPath, newPath)
	}
	slices.Sort(names)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told\tnew\tratio\tbound\tverdict")
	for _, name := range names {
		for _, m := range sp.EndToEnd {
			xs, ys := values(old.Workloads[name].Timed, m.Name), values(cur.Workloads[name].Timed, m.Name)
			if len(xs) == 0 || len(ys) == 0 {
				return false, fmt.Errorf("%s: metric %s missing", name, m.Name)
			}
			sign := 1.0
			if m.Better == "higher" {
				sign = -1
			}
			om, nm := median(xs), median(ys)
			worse := sign * (nm - om) / om
			verdict := "ok"
			switch {
			case spread(xs) > m.Bound || spread(ys) > m.Bound:
				verdict = "unresolved"
				allBetter := slices.Max(ys) < slices.Min(xs)
				if m.Better == "higher" {
					allBetter = slices.Min(ys) > slices.Max(xs)
				}
				if allBetter {
					verdict = "improved"
				}
			case worse > m.Bound:
				verdict = "regressed"
				regressed = true
			case worse < -m.Bound:
				verdict = "improved"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.4f\t%g\t%s\n", name, m.Name, om, nm, nm/om, m.Bound, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return false, err
	}
	return regressed, nil
}
