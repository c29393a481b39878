package main

import (
	"fmt"
	"os"
	"time"

	"deltacolor/verify"
)

// setupReps is how many times a timed run sets its workload up; setup_s is
// the median, and the last instance is the one measured.
const setupReps = 9

// runTimed measures the caller's view with tracing off: a closed loop with
// one caller, each call starting when the previous one returns. Setup (the
// input, churn's initial coloring and network, and one untimed warm-up
// call, call 0) is repeated setupReps times; calls 1, 2, ... then run
// until the budget is spent. Every coloring is verified outside the timed
// window.
func runTimed(w workload, seed int64, budget time.Duration, quick bool) (*result, error) {
	var inst instance
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		var err error
		if inst, err = w.setup(seed, quick); err != nil {
			return nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		if _, err := inst.call(seed); err != nil {
			return nil, fmt.Errorf("%s warm-up call: %w", w.name, err)
		}
		setups = append(setups, seconds(time.Since(t0)))
	}

	res := newResult()
	var walls, rounds, refs []float64
	var allocs uint64
	start := time.Now()
	for i := int64(1); i == 1 || time.Since(start) < budget; i++ {
		res.Attempted++
		refs = append(refs, seconds(refKernel()))
		a0 := heapAllocs()
		t0 := time.Now()
		out, err := inst.call(seed + i)
		wall := time.Since(t0)
		allocs += heapAllocs() - a0
		if err == nil {
			g, _ := inst.current()
			err = verify.DeltaColoring(g, out.colors, out.delta)
		}
		if err != nil {
			res.Failed++
			fmt.Fprintf(os.Stderr, "%s call %d: %v\n", w.name, i, err)
			continue
		}
		walls = append(walls, seconds(wall))
		rounds = append(rounds, float64(out.rounds))
	}

	res.set("setup_s", "s", median(setups))
	res.set("wall_p50_ref", "refs", median(walls)/median(refs))
	res.set("rounds_p50", "rounds", median(rounds))
	res.set("alloc_mb_per_call", "MB", mib(allocs)/float64(res.Attempted))
	res.Correct = res.Failed == 0
	return res, nil
}
