package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime/metrics"
	"slices"
	"sort"
	"strings"
	"time"
)

// result is one run's report, printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newResult() *result { return &result{Metrics: map[string]metric{}} }

func (r *result) set(name, unit string, v float64) { r.Metrics[name] = metric{Value: v, Unit: unit} }

// perLayerUnit derives a per-layer metric's unit from its name.
func perLayerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.HasSuffix(name, "_share"), strings.HasSuffix(name, "_ratio"):
		return "ratio"
	case strings.HasSuffix(name, "ns_per_node_round"):
		return "ns"
	case strings.HasSuffix(name, "rounds_charged"), strings.HasSuffix(name, "rounds_executed"),
		strings.HasSuffix(name, "_rounds") && name != "local.node_rounds", name == "brooks.rounds":
		return "rounds"
	}
	return "count"
}

func seconds(d time.Duration) float64 { return d.Seconds() }

func mib(bytes uint64) float64 { return float64(bytes) / (1 << 20) }

// median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the q-quantile of xs by the "exclusive" method of Python's
// statistics.quantiles, the definition the benchmark's run-to-run spread
// is judged by: position q·(n+1) among the order statistics, interpolated
// between its neighbours (and extrapolated for samples too small to
// bracket it).
func quantile(xs []float64, q float64) float64 {
	s := slices.Clone(xs)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0
	case 1:
		return s[0]
	}
	pos := q * float64(len(s)+1)
	j := min(max(int(pos), 1), len(s)-1)
	return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / math.Abs(m)
}

// checksum is the FNV-64a hash of a coloring, compared across runs of the
// same call to prove that tracing and the layer-by-layer split change
// nothing.
func checksum(colors []int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, c := range colors {
		binary.LittleEndian.PutUint64(b[:], uint64(int64(c)))
		h.Write(b[:])
	}
	return h.Sum64()
}

// heapAllocs reads the cumulative bytes allocated on the heap, without
// stopping the world.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		panic("runtime metric /gc/heap/allocs:bytes unsupported")
	}
	return s[0].Value.Uint64()
}

// refSink keeps refKernel's result alive.
var refSink uint64

// refKernel times a fixed compute-bound loop (about 2 ms). It runs next to
// every timed call, so a host that slows down for a while slows both, and
// wall_p50_ref (call time in units of this loop) cancels part of it. The
// loop must never change.
func refKernel() time.Duration {
	t0 := time.Now()
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 1<<20; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	refSink += x
	return time.Since(t0)
}
