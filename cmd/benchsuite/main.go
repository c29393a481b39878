// Command benchsuite runs the experiment suite E1–E16 (exp.Experiments)
// and prints every table as markdown. -strict also fails on dead sends
// and arms the gates of E14–E16; -baseline and -mpbaseline arm E12's
// delta and multi-worker gates (CI runs E12 at GOMAXPROCS=1, then at
// GOMAXPROCS=4 against the first run's JSON). -json DIR writes the
// measured experiments' documents (E12, E14–E16) to DIR/BENCH_<name>.json
// (BENCH_<name>_quick.json under -quick) before their gates are checked,
// so a failing gate still leaves its evidence.
//
//	go run ./cmd/benchsuite                  # full suite (minutes)
//	go run ./cmd/benchsuite -quick           # smoke scale (seconds)
//	go run ./cmd/benchsuite -quick -strict   # + dead-send and E14–E16 gates
//	go run ./cmd/benchsuite -only E4,E6      # a subset
//	go run ./cmd/benchsuite -only E12 -json .
//	go run ./cmd/benchsuite -quick -only E12 -baseline BENCH_runtime.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"deltacolor/internal/exp"
	"deltacolor/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintf(os.Stderr, "benchsuite: %v\n", err)
		os.Exit(1)
	}
}

// run is the whole command: it parses args, runs the selected
// experiments, writes their documents and checks their gates. The CPU
// profile is stopped and the heap profile written on every return path.
func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("benchsuite", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		quick      = fs.Bool("quick", false, "run at smoke scale")
		seed       = fs.Int64("seed", 1, "experiment seed")
		only       = fs.String("only", "", "comma-separated experiment IDs (e.g. E1,E6); empty = all")
		csvOut     = fs.Bool("csv", false, "emit CSV instead of markdown (notes omitted)")
		strict     = fs.Bool("strict", false, "fail hard on dead sends (messages staged for halted neighbors) and check the E14–E16 gates")
		jsonDir    = fs.String("json", "", "write each measured experiment's report to this directory as BENCH_<name>.json (BENCH_<name>_quick.json under -quick)")
		baseline   = fs.String("baseline", "", "compare the E12 report against this baseline JSON (selects E12)")
		mpBaseline = fs.String("mpbaseline", "", "multi-worker gate: the fresh E12 rr4 sweep must not be slower than this report's single-worker rr4 rounds/s (selects E12)")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the suite to this path")
		memProfile = fs.String("memprofile", "", "write a heap profile at suite end to this path")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := exp.Config{Quick: *quick, Seed: *seed, Strict: *strict}
	if cfg.Baseline, err = readBaseline(*baseline); err != nil {
		return err
	}
	if cfg.MultiWorkerBaseline, err = readBaseline(*mpBaseline); err != nil {
		return err
	}
	want, err := selectIDs(*only, cfg.Baseline != nil || cfg.MultiWorkerBaseline != nil)
	if err != nil {
		return err
	}

	stopCPU, err := obs.StartCPUProfile(*cpuProfile)
	if err != nil {
		return err
	}
	defer func() {
		err = errors.Join(err, stopCPU(), obs.WriteHeapProfile(*memProfile))
	}()

	start := time.Now()
	for _, e := range exp.Experiments {
		if want != nil && !want[e.ID] {
			continue
		}
		t0 := time.Now()
		rep := e.Run(cfg)
		if *csvOut {
			fmt.Fprintf(stdout, "# %s — %s\n", rep.Table.ID, rep.Table.Title)
			if err := rep.Table.CSV(stdout); err != nil {
				return fmt.Errorf("csv: %w", err)
			}
			fmt.Fprintln(stdout)
		} else {
			rep.Table.Markdown(stdout)
		}
		fmt.Fprintf(stderr, "%s done in %v\n", e.ID, time.Since(t0).Round(time.Millisecond))
		if rep.Doc != nil && *jsonDir != "" {
			path, err := writeDoc(*jsonDir, rep, *quick)
			if err != nil {
				return err
			}
			fmt.Fprintf(stderr, "wrote %s\n", path)
		}
		if rep.Gate != nil {
			if err := rep.Gate(); err != nil {
				return err
			}
			fmt.Fprintf(stderr, "%s gate OK\n", e.ID)
		}
	}
	fmt.Fprintf(stderr, "suite done in %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// selectIDs parses -only into the set of experiments to run (nil: all),
// rejecting an ID exp.Experiments does not list. withE12 adds E12 to a
// non-empty selection, for the baseline flags.
func selectIDs(only string, withE12 bool) (map[string]bool, error) {
	if only == "" {
		return nil, nil
	}
	want := map[string]bool{"E12": withE12}
	for _, id := range strings.Split(only, ",") {
		id = strings.TrimSpace(strings.ToUpper(id))
		if !slices.ContainsFunc(exp.Experiments, func(e exp.Experiment) bool { return e.ID == id }) {
			return nil, fmt.Errorf("unknown experiment %q in -only=%q", id, only)
		}
		want[id] = true
	}
	return want, nil
}

// readBaseline reads a runtime report given by a baseline flag (nil when
// the flag is empty).
func readBaseline(path string) (*exp.RuntimeReport, error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rep exp.RuntimeReport
	if err := exp.ReadDoc(f, exp.RuntimeSchema, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// writeDoc writes rep's document to dir as BENCH_<name>.json, or
// BENCH_<name>_quick.json for a quick run, creating dir if needed.
func writeDoc(dir string, rep exp.Report, quick bool) (string, error) {
	name := "BENCH_" + rep.Name
	if quick {
		name += "_quick"
	}
	path := filepath.Join(dir, name+".json")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := exp.WriteDoc(f, rep.Doc); err != nil {
		f.Close()
		return "", fmt.Errorf("%s: %w", path, err)
	}
	return path, f.Close()
}
