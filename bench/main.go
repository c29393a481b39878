// Command bench is the repository's end-to-end benchmark. It times
// deltacolor.Color and deltacolor.Recolor the way a caller experiences
// them and, in a separate traced run, attributes each call to the layers
// underneath (see README.md for the workloads, metrics and method).
//
// Run it from the repository root through bench/run.sh, which builds it:
//
//	bash bench/run.sh --workload rand-rr4 --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh [-seed 1] [-passes 1] [-out results.json] [-quick]
//	bash bench/run.sh -compare old.json new.json
//
// With one -workload the run happens in this process and its last line of
// output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. -trace 0 reports the end-to-end metrics, -trace 1 the
// per-layer ones. Without -workload, or with a comma-separated list, every
// named workload runs timed and traced in child processes, one at a time;
// the medians are printed and -out saves every sample for -compare.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// procs is the GOMAXPROCS every run uses, so results do not depend on the
// host's core count. One: on a small shared host, a second scheduler
// thread makes the engine's worker barrier and the GC wait on whichever
// core another tenant is using; on a shared 2-vCPU host that tripled the
// run-to-run spread of call times and made every call slower.
const procs = 1

func main() {
	runtime.GOMAXPROCS(procs)
	workload := flag.String("workload", "", "workload name, or comma-separated list (default: all)")
	seed := flag.Int64("seed", 1, "run seed: inputs are built from it and call i uses seed+i")
	secs := flag.Float64("seconds", 20, "measurement budget of one run, in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced (per-layer) run instead of the timed one")
	quick := flag.Bool("quick", false, "tiny inputs, for smoke tests")
	passes := flag.Int("passes", 1, "with several workloads: timed+traced runs per workload (pass p uses seed+p)")
	out := flag.String("out", "", "with several workloads: write every sample to this JSON file")
	compare := flag.String("compare", "", "compare this results file (old) with the file given as argument (new)")
	flag.Parse()

	var err error
	switch {
	case *compare != "":
		if flag.NArg() != 1 {
			err = fmt.Errorf("-compare OLD takes the NEW results file as its one argument")
			break
		}
		var regressed bool
		if regressed, err = compareFiles(os.Stdout, "BENCHMARK.json", *compare, flag.Arg(0)); err == nil && regressed {
			os.Exit(1)
		}
	case *workload != "" && !strings.Contains(*workload, ","):
		err = runOne(*workload, *seed, *secs, *trace == 1, *quick)
	default:
		err = runAll(*workload, *seed, *secs, *quick, *passes, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne runs one workload in this process and prints its result line.
func runOne(name string, seed int64, secs float64, traced, quick bool) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	run := runTimed
	if traced {
		run = runTraced
	}
	res, err := run(w, seed, time.Duration(secs*float64(time.Second)), quick)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d calls failed", name, res.Failed, res.Attempted)
	}
	return nil
}
