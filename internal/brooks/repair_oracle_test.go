package brooks

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"deltacolor/graph"
	"deltacolor/graph/gen"
	"deltacolor/internal/dist"
	"deltacolor/internal/gallai"
	"deltacolor/local"
)

// The oracles below are frozen copies of the repair engine before the
// shared fixer: FixOne ran a full BFS to SearchRadius, built a fresh
// gallai.Finder, copied the whole coloring and answered B(v, R) with a
// second BFS; RepairHoles applied each chosen repair over its whole ball
// from that full copy. The engine must match them exactly: colors, Fixed,
// Changed (order included), Batches, SummedRounds and error text.

func oracleFixOne(g *graph.G, partial []int, v, delta int) (*Result, error) {
	if partial[v] >= 0 {
		return nil, fmt.Errorf("brooks: node %d is already colored", v)
	}
	colors := append([]int(nil), partial...)
	rMax := SearchRadius(g.N(), delta)
	if c := FreeColor(g, colors, v, delta); c >= 0 {
		colors[v] = c
		return &Result{Colors: colors, Radius: 0, Rounds: 1, Mode: ModeFree}, nil
	}
	bfs := g.BFSLimited(v, rMax)
	target, mode := -1, Mode(0)
	for _, u := range bfs.Order {
		if g.Deg(u) < delta {
			target, mode = u, ModeLowDegree
			break
		}
	}
	var dcc []int
	if target < 0 {
		f := gallai.NewFinder(g)
		for _, u := range bfs.Order {
			if d := f.Find(u, rMax); d != nil {
				target, mode, dcc = u, ModeDCC, d
				break
			}
		}
	}
	if target >= 0 {
		res, err := oracleWalkAndResolve(g, colors, v, target, delta, mode, dcc, bfs)
		if err == nil {
			return res, nil
		}
	}
	return oracleFallbackRecolor(g, colors, v, delta)
}

func oracleWalkAndResolve(g *graph.G, colors []int, v, target, delta int, mode Mode, dcc []int, bfs *graph.BFSResult) (*Result, error) {
	var path []int
	for x := target; x != -1; x = bfs.Parent[x] {
		path = append(path, x)
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	radius := 0
	cur := v
	for i := 1; i < len(path); i++ {
		if c := FreeColor(g, colors, cur, delta); c >= 0 {
			colors[cur] = c
			return &Result{Colors: colors, Radius: radius, Rounds: 2*radius + 2, Mode: ModeFree}, nil
		}
		next := path[i]
		colors[cur] = colors[next]
		colors[next] = -1
		cur = next
		if bfs.Dist[cur] > radius {
			radius = bfs.Dist[cur]
		}
	}
	switch mode {
	case ModeLowDegree:
		c := FreeColor(g, colors, cur, delta)
		if c < 0 {
			return nil, fmt.Errorf("brooks: low-degree target %d has no free color", cur)
		}
		colors[cur] = c
		return &Result{Colors: colors, Radius: radius, Rounds: 2*radius + 2, Mode: ModeLowDegree}, nil
	case ModeDCC:
		if !containsNode(dcc, cur) {
			dcc = append(dcc, cur)
			if !gallai.IsDCCSet(g, dcc) {
				return nil, fmt.Errorf("brooks: token node %d not in its DCC", cur)
			}
		}
		for _, u := range dcc {
			colors[u] = -1
		}
		lists := gallai.DegreeLists(g, dcc, colors, delta)
		sol, err := gallai.BruteListColor(g, dcc, lists)
		if err != nil {
			return nil, fmt.Errorf("brooks: DCC recoloring: %w", err)
		}
		for i, u := range dcc {
			colors[u] = sol[i]
		}
		dccRadius := gallai.SetRadius(g, dcc)
		if dccRadius < 0 {
			dccRadius = len(dcc)
		}
		total := radius + 2*dccRadius
		return &Result{Colors: colors, Radius: total, Rounds: 2*total + 2, Mode: ModeDCC}, nil
	default:
		return nil, fmt.Errorf("brooks: unknown mode %v", mode)
	}
}

func oracleFallbackRecolor(g *graph.G, colors []int, v, delta int) (*Result, error) {
	for r := 1; r <= g.N(); r++ {
		ball := g.Ball(v, r)
		saved := map[int]int{}
		for _, u := range ball {
			saved[u] = colors[u]
			colors[u] = -1
		}
		lists := gallai.DegreeLists(g, ball, colors, delta)
		sol, err := gallai.BruteListColor(g, ball, lists)
		if err == nil {
			for i, u := range ball {
				colors[u] = sol[i]
			}
			return &Result{Colors: colors, Radius: r, Rounds: 2*r + 2, Mode: ModeFallback}, nil
		}
		for u, c := range saved {
			colors[u] = c
		}
		if len(ball) == g.N() {
			break
		}
	}
	return nil, fmt.Errorf("brooks: fallback recoloring failed around node %d", v)
}

// oracleRepairHoles is the frozen RepairHoles. It also counts the batches
// whose chosen balls overlap, which only a faulty MIS run produces.
func oracleRepairHoles(g *graph.G, colors []int, holes []int, delta int, seed int64) (*BatchResult, int, error) {
	res := &BatchResult{}
	overlaps := 0
	remaining := dedupeHoles(g, colors, holes)
	var qb *local.QuotientBuilder
	for iter := 0; len(remaining) > 0; iter++ {
		if iter > len(holes) {
			return res, overlaps, fmt.Errorf("brooks: batch repair made no progress after %d iterations (%d holes left)", iter, len(remaining))
		}
		fixes := make([]*Result, len(remaining))
		freeCols := make([]int, len(remaining))
		balls := make([][]int, len(remaining))
		maxRadius := 0
		for i, v := range remaining {
			if c := FreeColor(g, colors, v, delta); c >= 0 {
				fixes[i] = nil
				freeCols[i] = c
				balls[i] = []int{v}
				continue
			}
			fix, err := oracleFixOne(g, colors, v, delta)
			if err != nil {
				return res, overlaps, fmt.Errorf("brooks: batch repair of node %d: %w", v, err)
			}
			fixes[i] = fix
			balls[i] = g.Ball(v, fix.Radius)
			if fix.Radius > maxRadius {
				maxRadius = fix.Radius
			}
		}
		chosen := make([]bool, len(remaining))
		schedRounds := 0
		if len(remaining) == 1 {
			chosen[0] = true
		} else {
			if qb == nil {
				qb = local.NewQuotientBuilder(g)
			}
			qnet := qb.Build(balls, seed+int64(iter)*1_000_003)
			inMIS, misRounds := dist.LubyMIS(qnet, nil)
			copy(chosen, inMIS)
			schedRounds = (2*maxRadius + 1) * (misRounds + 1)
		}
		if ballsOverlap(balls, chosen) {
			overlaps++
		}
		info := BatchInfo{SchedRounds: schedRounds, MaxRadius: maxRadius}
		for i, v := range remaining {
			if !chosen[i] || colors[v] >= 0 {
				continue
			}
			rounds := 1
			if fixes[i] == nil {
				colors[v] = freeCols[i]
				res.Changed = append(res.Changed, v)
			} else {
				for _, u := range balls[i] {
					if fixes[i].Colors[u] != colors[u] {
						colors[u] = fixes[i].Colors[u]
						res.Changed = append(res.Changed, u)
					}
				}
				rounds = fixes[i].Rounds
			}
			info.Size++
			res.SummedRounds += rounds
			if rounds > info.Rounds {
				info.Rounds = rounds
			}
		}
		if info.Size == 0 {
			return res, overlaps, fmt.Errorf("brooks: batch repair scheduled an empty batch (%d holes left)", len(remaining))
		}
		res.Fixed += info.Size
		res.Batches = append(res.Batches, info)
		kept := remaining[:0]
		for _, v := range remaining {
			if colors[v] < 0 {
				kept = append(kept, v)
			}
		}
		remaining = kept
	}
	return res, overlaps, nil
}

// ballsOverlap reports whether two chosen balls share a node.
func ballsOverlap(balls [][]int, chosen []bool) bool {
	owner := map[int]bool{}
	for i, ball := range balls {
		if !chosen[i] {
			continue
		}
		for _, u := range ball {
			if owner[u] {
				return true
			}
		}
		for _, u := range ball {
			owner[u] = true
		}
	}
	return false
}

// errText renders an error for comparison; nil is the empty string.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// checkRepairMatchesOracle runs RepairHoles and the oracle on copies of
// colors and fails on any difference. It returns the oracle's count of
// batches with overlapping chosen balls.
func checkRepairMatchesOracle(t *testing.T, label string, g *graph.G, colors, holes []int, delta int, seed int64) int {
	t.Helper()
	got := append([]int(nil), colors...)
	want := append([]int(nil), colors...)
	gr, gerr := RepairHoles(g, got, holes, delta, seed)
	wr, overlaps, werr := oracleRepairHoles(g, want, holes, delta, seed)
	if errText(gerr) != errText(werr) {
		t.Fatalf("%s: error %q, oracle %q", label, errText(gerr), errText(werr))
	}
	if !slices.Equal(got, want) {
		for u := range got {
			if got[u] != want[u] {
				t.Fatalf("%s: node %d colored %d, oracle %d", label, u, got[u], want[u])
			}
		}
	}
	if gr.Fixed != wr.Fixed || gr.SummedRounds != wr.SummedRounds {
		t.Fatalf("%s: fixed %d summed %d, oracle %d and %d", label, gr.Fixed, gr.SummedRounds, wr.Fixed, wr.SummedRounds)
	}
	if !slices.Equal(gr.Batches, wr.Batches) {
		t.Fatalf("%s: batches %+v, oracle %+v", label, gr.Batches, wr.Batches)
	}
	if !slices.Equal(gr.Changed, wr.Changed) {
		t.Fatalf("%s: changed %v, oracle %v", label, gr.Changed, wr.Changed)
	}
	return overlaps
}

// oracleFixture is a proper Δ-coloring to punch holes into.
type oracleFixture struct {
	name   string
	g      *graph.G
	colors []int
}

func oracleFixtures(t *testing.T) []oracleFixture {
	rr4, err := gen.RandomRegular(rand.New(rand.NewSource(5)), 300, 4)
	if err != nil {
		t.Fatal(err)
	}
	var fixtures []oracleFixture
	for _, g := range []struct {
		name string
		g    *graph.G
	}{{"rr4", rr4}, {"grid", gen.Grid(16, 18)}, {"torus", gen.Torus(14, 16)}} {
		fixtures = append(fixtures, oracleFixture{g.name, g.g, randomColoring(t, g.g, 4, rand.New(rand.NewSource(int64(len(fixtures)))))})
	}
	return fixtures
}

// randomColoring colors g in random order with random free colors,
// falling back to FixOne where a node is stuck: a proper Δ-coloring that,
// unlike a greedy one, mixes all Δ colors around most nodes.
func randomColoring(t testing.TB, g *graph.G, delta int, rng *rand.Rand) []int {
	t.Helper()
	colors := make([]int, g.N())
	for v := range colors {
		colors[v] = -1
	}
	for _, v := range rng.Perm(g.N()) {
		used := make([]bool, delta)
		for _, u := range g.Neighbors(v) {
			if colors[u] >= 0 {
				used[colors[u]] = true
			}
		}
		var free []int
		for c, taken := range used {
			if !taken {
				free = append(free, c)
			}
		}
		if len(free) > 0 {
			colors[v] = free[rng.Intn(len(free))]
			continue
		}
		res, err := FixOne(g, colors, v, delta)
		if err != nil {
			t.Fatalf("fixture coloring at %d: %v", v, err)
		}
		copy(colors, res.Colors)
	}
	return colors
}

// punch uncolors the given nodes, first making each one stuck (all Δ
// colors around it) where rainbowAt can, so the repairs walk instead of
// taking a free color.
func punch(g *graph.G, base []int, nodes []int, delta int) ([]int, []int) {
	colors := append([]int(nil), base...)
	for _, v := range nodes {
		if colors[v] >= 0 {
			rainbowAt(g, colors, v, delta)
		}
		colors[v] = -1
	}
	return colors, nodes
}

// holeSets returns single, adjacent and scattered hole sets for g, and
// where g has nodes of degree < Δ, holes next to them ("near-low"), whose
// stuck repairs walk one step to the low-degree node.
func holeSets(rng *rand.Rand, g *graph.G, delta int) map[string][]int {
	n := g.N()
	single := []int{rng.Intn(n)}
	var adjacent []int
	for i := 0; i < 4; i++ {
		v := rng.Intn(n)
		adjacent = append(adjacent, v, g.Neighbors(v)[rng.Intn(g.Deg(v))])
	}
	scattered := rng.Perm(n)[:n/12]
	sort.Ints(scattered)
	sets := map[string][]int{"single": single, "adjacent": adjacent, "scattered": scattered}
	for _, v := range rng.Perm(n) {
		if g.Deg(v) < delta {
			continue
		}
		for _, u := range g.Neighbors(v) {
			if g.Deg(u) < delta && len(sets["near-low"]) < 3 {
				sets["near-low"] = append(sets["near-low"], v)
				break
			}
		}
	}
	return sets
}

// TestRepairHolesMatchesOracle compares the engine with the frozen one on
// rr4, grid and torus, with single, adjacent, scattered and (grid)
// near-low holes made stuck where possible, and requires the fixtures to
// reach every token procedure outcome but the fallback.
func TestRepairHolesMatchesOracle(t *testing.T) {
	modes := map[Mode]int{}
	for _, fx := range oracleFixtures(t) {
		for trial := int64(0); trial < 4; trial++ {
			rng := rand.New(rand.NewSource(trial))
			sets := holeSets(rng, fx.g, 4)
			for _, kind := range []string{"single", "adjacent", "scattered", "near-low"} {
				if sets[kind] == nil {
					continue
				}
				colors, holes := punch(fx.g, fx.colors, sets[kind], 4)
				label := fmt.Sprintf("%s %s trial %d", fx.name, kind, trial)
				checkRepairMatchesOracle(t, label, fx.g, colors, holes, 4, trial)
				for _, v := range holes {
					if colors[v] >= 0 {
						continue
					}
					if fix, err := oracleFixOne(fx.g, colors, v, 4); err == nil {
						modes[fix.Mode]++
					}
				}
			}
		}
	}
	t.Logf("modes: %v", modes)
	for _, m := range []Mode{ModeFree, ModeLowDegree, ModeDCC} {
		if modes[m] == 0 {
			t.Errorf("no repair resolved in mode %v (modes seen: %v)", m, modes)
		}
	}
}

// TestRepairHolesMatchesOracleUnderFaults runs both engines with a drop
// FaultPlan installed, so the scheduling MIS can choose adjacent quotient
// nodes. Overlapping chosen balls are the case a diff-only application
// gets wrong (the later repair must overwrite its whole ball); the test
// fails unless at least one batch chose them.
func TestRepairHolesMatchesOracleUnderFaults(t *testing.T) {
	prev := local.DefaultFaultPlan()
	t.Cleanup(func() { _ = local.SetDefaultFaultPlan(prev) })
	overlaps := 0
	for _, fx := range oracleFixtures(t) {
		for trial := int64(0); trial < 6; trial++ {
			plan := &local.FaultPlan{Seed: 100 + trial, DropProb: 0.05 + 0.05*float64(trial%3), RoundLimit: 2000}
			if err := local.SetDefaultFaultPlan(plan); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(trial))
			colors, holes := punch(fx.g, fx.colors, holeSets(rng, fx.g, 4)["scattered"], 4)
			label := fmt.Sprintf("%s faulty trial %d", fx.name, trial)
			overlaps += checkRepairMatchesOracle(t, label, fx.g, colors, holes, 4, trial)
		}
	}
	if overlaps == 0 {
		t.Fatal("no faulty batch chose overlapping balls: the fixtures no longer exercise whole-ball application")
	}
	t.Logf("%d batches chose overlapping balls", overlaps)
}

// TestFixerMatchesOracleAcrossEpochWrap runs one fixer across wraps of
// its BFS epoch and compares every repair with the frozen FixOne: colors,
// radius, rounds and mode, the ball with g.Ball, and the undo with the
// input. Every repair is stuck, so its BFS stamps a wide ball, and every
// odd one starts at the last epoch: it wraps to epoch 1, the stamp the
// first repair left everywhere it looked, which must not read as visited.
func TestFixerMatchesOracleAcrossEpochWrap(t *testing.T) {
	rr4, err := gen.RandomRegular(rand.New(rand.NewSource(9)), 200, 4)
	if err != nil {
		t.Fatal(err)
	}
	base := randomColoring(t, rr4, 4, rand.New(rand.NewSource(2)))
	f := newFixer(rr4, 4)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 12; i++ {
		var v int
		var colors []int
		for try := 0; ; try++ {
			if try == 1000 {
				t.Fatal("no stuck hole found")
			}
			v = rng.Intn(rr4.N())
			if colors, _ = punch(rr4, base, []int{v}, 4); FreeColor(rr4, colors, v, 4) < 0 {
				break
			}
		}
		if i%2 == 1 {
			f.epoch = math.MaxUint32
		}
		want, werr := oracleFixOne(rr4, colors, v, 4)
		got := append([]int(nil), colors...)
		res, gerr := f.fix(got, v)
		if errText(gerr) != errText(werr) {
			t.Fatalf("repair %d (epoch %d): error %q, oracle %q", i, f.epoch, errText(gerr), errText(werr))
		}
		if gerr != nil {
			continue
		}
		if !slices.Equal(got, want.Colors) || res.Radius != want.Radius || res.Rounds != want.Rounds || res.Mode != want.Mode {
			t.Fatalf("repair %d (epoch %d): radius %d rounds %d mode %v, oracle %d %d %v (colors equal: %v)",
				i, f.epoch, res.Radius, res.Rounds, res.Mode, want.Radius, want.Rounds, want.Mode, slices.Equal(got, want.Colors))
		}
		if ball := f.ball(res.Radius); !slices.Equal(ball, rr4.Ball(v, res.Radius)) {
			t.Fatalf("repair %d (epoch %d): ball %v, want %v", i, f.epoch, ball, rr4.Ball(v, res.Radius))
		}
		f.undo(got, 0)
		if !slices.Equal(got, colors) {
			t.Fatalf("repair %d (epoch %d): undo did not restore the input", i, f.epoch)
		}
	}
}
