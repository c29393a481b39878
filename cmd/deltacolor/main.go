// Command deltacolor generates or loads a graph, runs a chosen Δ-coloring
// algorithm on the simulated LOCAL network, verifies the result, and
// reports the round accounting.
//
// Examples:
//
//	deltacolor -gen regular -n 1024 -d 4 -alg randomized
//	deltacolor -gen torus -rows 32 -cols 32 -alg deterministic -phases
//	deltacolor -in graph.txt -alg baseline
//	deltacolor -gen regular -n 512 -d 5 -out graph.txt -alg none
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"deltacolor"
	"deltacolor/graph"
	"deltacolor/graph/gen"
	"deltacolor/internal/obs"
	"deltacolor/local"
	"deltacolor/verify"
)

func main() {
	var (
		genName = flag.String("gen", "regular", "generator: regular | torus | grid | hypercube | tree | gnp | cliquechain | gallai")
		n       = flag.Int("n", 1024, "number of nodes (regular, tree, gnp)")
		d       = flag.Int("d", 4, "degree (regular) / max degree cap (gnp)")
		rows    = flag.Int("rows", 32, "rows (torus, grid)")
		cols    = flag.Int("cols", 32, "cols (torus, grid)")
		dim     = flag.Int("dim", 5, "dimension (hypercube)")
		p       = flag.Float64("p", 0.01, "edge probability (gnp)")
		k       = flag.Int("k", 16, "number of blocks (cliquechain, gallai)")
		c       = flag.Int("c", 4, "clique size (cliquechain) / max clique (gallai)")
		algName = flag.String("alg", "auto", "algorithm: auto | randomized | deterministic | netdec | baseline | none")
		seed    = flag.Int64("seed", 1, "random seed (graph generation and algorithm)")
		inFile  = flag.String("in", "", "read graph from file instead of generating (.g6 = graph6, anything else = edge list)")
		outFile = flag.String("out", "", "write the graph to this file (.g6 = graph6, else edge list)")
		dotFile = flag.String("dot", "", "write the colored graph as Graphviz DOT to this file")
		jsonOut = flag.Bool("json", false, "print the result as JSON (colors, rounds, phases) instead of the summary line")
		stats   = flag.Bool("stats", false, "print graph statistics (degree histogram, girth, diameter)")
		phases  = flag.Bool("phases", false, "print per-phase round accounting")
		quiet   = flag.Bool("q", false, "print only the summary line")

		traceOut   = flag.String("trace", "", "write a Chrome trace-event file (open in ui.perfetto.dev) to this path")
		traceJSONL = flag.String("tracejsonl", "", "write the trace as compact JSONL to this path")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this path")
		memProfile = flag.String("memprofile", "", "write a heap profile to this path")
	)
	flag.Parse()

	stopCPU, err := obs.StartCPUProfile(*cpuProfile)
	if err != nil {
		fatal(err)
	}
	tracer := local.TraceOff
	if *traceOut != "" || *traceJSONL != "" {
		tracer = local.TraceFull
	}
	tr := obs.InstallTracer(tracer)

	g, err := buildGraph(*inFile, *genName, *n, *d, *rows, *cols, *dim, *p, *k, *c, *seed)
	if err != nil {
		fatal(err)
	}
	if !*quiet {
		fmt.Printf("graph: n=%d m=%d Δ=%d\n", g.N(), g.M(), g.MaxDegree())
	}
	if *stats {
		printStats(g)
	}

	if *outFile != "" {
		if err := writeGraph(*outFile, g); err != nil {
			fatal(err)
		}
		if !*quiet {
			fmt.Printf("wrote %s\n", *outFile)
		}
	}

	finishProfiles := func() {
		if err := stopCPU(); err != nil {
			fatal(err)
		}
		if err := obs.WriteHeapProfile(*memProfile); err != nil {
			fatal(err)
		}
	}

	alg, run, err := parseAlg(*algName)
	if err != nil {
		fatal(err)
	}
	if !run {
		finishProfiles()
		return
	}

	res, err := deltacolor.Color(g, deltacolor.Options{Algorithm: alg, Seed: *seed})
	if err != nil {
		fatal(err)
	}
	finishProfiles()
	if err := obs.WriteTraces(tr, res.Span, *traceOut, *traceJSONL); err != nil {
		fatal(err)
	}
	if tr != nil && !*quiet {
		c := tr.Counters()
		fmt.Printf("trace: runs=%d engine_rounds=%d msgs=%d (int=%d record=%d) drops=%d\n",
			c.Runs, c.Rounds, c.Messages(), c.IntMessages, c.RecordMessages, c.Drops)
	}
	if err := verify.DeltaColoring(g, res.Colors, res.Delta); err != nil {
		fatal(fmt.Errorf("result failed verification: %w", err))
	}
	if *jsonOut {
		if err := printJSON(res); err != nil {
			fatal(err)
		}
	} else {
		fmt.Printf("ok alg=%s Δ=%d colors_used=%d rounds=%d repairs=%d\n",
			res.Algorithm, res.Delta, verify.CountColors(res.Colors), res.Rounds, res.Repairs)
	}
	if *phases {
		for _, ph := range res.Phases {
			fmt.Printf("  %-24s %6d rounds\n", ph.Name, ph.Rounds)
		}
	}
	if *dotFile != "" {
		f, err := os.Create(*dotFile)
		if err != nil {
			fatal(err)
		}
		if err := graph.WriteDOT(f, g, res.Colors); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		if !*quiet {
			fmt.Printf("wrote %s (render: dot -Tsvg %s > out.svg)\n", *dotFile, *dotFile)
		}
	}
}

// printJSON renders the result as a single machine-readable object.
func printJSON(res *deltacolor.Result) error {
	type phase struct {
		Name   string `json:"name"`
		Rounds int    `json:"rounds"`
	}
	out := struct {
		Algorithm string  `json:"algorithm"`
		Delta     int     `json:"delta"`
		Rounds    int     `json:"rounds"`
		Repairs   int     `json:"repairs"`
		Phases    []phase `json:"phases"`
		Colors    []int   `json:"colors"`
	}{
		Algorithm: res.Algorithm.String(),
		Delta:     res.Delta,
		Rounds:    res.Rounds,
		Repairs:   res.Repairs,
		Colors:    res.Colors,
	}
	for _, p := range res.Phases {
		out.Phases = append(out.Phases, phase{p.Name, p.Rounds})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// printStats prints the degree histogram and (for graphs small enough to
// afford all-pairs BFS) girth and diameter.
func printStats(g *graph.G) {
	hist := map[int]int{}
	maxDeg := 0
	for v := 0; v < g.N(); v++ {
		hist[g.Deg(v)]++
		if g.Deg(v) > maxDeg {
			maxDeg = g.Deg(v)
		}
	}
	fmt.Println("degree histogram:")
	for d := 0; d <= maxDeg; d++ {
		if hist[d] > 0 {
			fmt.Printf("  deg %2d: %d nodes\n", d, hist[d])
		}
	}
	if g.N() <= 4096 {
		fmt.Printf("girth: %d, diameter: %d, connected: %v\n", g.Girth(), g.Diameter(), g.IsConnected())
	} else {
		fmt.Println("girth/diameter: skipped (n > 4096)")
	}
}

// writeGraph writes g to path, choosing the format by extension.
func writeGraph(path string, g *graph.G) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".g6") {
		s, err := graph.ToGraph6(g)
		if err != nil {
			return err
		}
		_, err = fmt.Fprintln(f, s)
		return err
	}
	return graph.WriteEdgeList(f, g)
}

func buildGraph(inFile, genName string, n, d, rows, cols, dim int, p float64, k, c int, seed int64) (*graph.G, error) {
	if inFile != "" {
		if strings.HasSuffix(inFile, ".g6") {
			data, err := os.ReadFile(inFile)
			if err != nil {
				return nil, err
			}
			return graph.FromGraph6(strings.TrimSpace(string(data)))
		}
		f, err := os.Open(inFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return graph.ReadEdgeList(f)
	}
	rng := rand.New(rand.NewSource(seed))
	switch genName {
	case "regular":
		return gen.RandomRegular(rng, n, d)
	case "torus":
		return gen.Torus(rows, cols), nil
	case "grid":
		return gen.Grid(rows, cols), nil
	case "hypercube":
		return gen.Hypercube(dim), nil
	case "tree":
		return gen.RandomTree(rng, n), nil
	case "gnp":
		return gen.GNPMaxDeg(rng, n, p, d), nil
	case "cliquechain":
		// Flag semantics: -k blocks of size -c (CliqueChain takes size first).
		return gen.CliqueChain(c, k), nil
	case "gallai":
		return gen.GallaiTree(rng, k, c), nil
	default:
		return nil, fmt.Errorf("unknown generator %q", genName)
	}
}

func parseAlg(name string) (deltacolor.Algorithm, bool, error) {
	switch name {
	case "auto":
		return deltacolor.AlgAuto, true, nil
	case "randomized":
		return deltacolor.AlgRandomized, true, nil
	case "deterministic":
		return deltacolor.AlgDeterministic, true, nil
	case "netdec":
		return deltacolor.AlgNetDec, true, nil
	case "baseline":
		return deltacolor.AlgBaseline, true, nil
	case "none":
		return 0, false, nil
	default:
		return 0, false, fmt.Errorf("unknown algorithm %q", name)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "deltacolor:", err)
	os.Exit(1)
}
