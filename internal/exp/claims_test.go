package exp

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// Acceptance tests for the experiment claims themselves, in quick mode:
// the *shapes* the benchsuite tables report must hold on every run, not
// just the published one. Quick mode is noisier than the full suite, so only
// the robust invariants are asserted.

func atoi(t *testing.T, s string) int {
	t.Helper()
	v, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil {
		t.Fatalf("expected integer cell, got %q", s)
	}
	return v
}

func atof(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		t.Fatalf("expected float cell, got %q", s)
	}
	return v
}

// E4: the randomized algorithm must beat the baseline on every row.
func TestClaimE4RandomizedBeatsBaseline(t *testing.T) {
	tb := E4Baseline(Config{Quick: true, Seed: 11})
	for _, row := range tb.Rows {
		randRounds := atoi(t, row[3])
		baseRounds := atoi(t, row[5])
		if baseRounds <= randRounds {
			t.Fatalf("row %v: baseline (%d) did not exceed randomized (%d)", row, baseRounds, randRounds)
		}
	}
}

// E5: every qualifying ball must satisfy the expansion bound (the
// "satisfied" cell is "k/k").
func TestClaimE5BoundAlwaysSatisfied(t *testing.T) {
	tb := E5Expansion(Config{Quick: true, Seed: 13})
	for _, row := range tb.Rows {
		parts := strings.Split(row[5], "/")
		if len(parts) != 2 {
			t.Fatalf("malformed satisfied cell %q", row[5])
		}
		if parts[0] != parts[1] {
			t.Fatalf("row %v: %s of %s qualifying balls satisfied the bound", row, parts[0], parts[1])
		}
	}
}

// E7: every Brooks repair stays within the Theorem 5 radius bound.
func TestClaimE7WithinBound(t *testing.T) {
	tb := E7Brooks(Config{Quick: true, Seed: 17})
	for _, row := range tb.Rows {
		if maxRad, bound := atoi(t, row[4]), atoi(t, row[5]); maxRad > bound {
			t.Fatalf("row %v: radius %d > bound %d", row, maxRad, bound)
		}
	}
}

// E7b: forced instances exist and still stay within the bound.
func TestClaimE7bForcedWithinBound(t *testing.T) {
	tb := E7Adversarial(Config{Quick: true, Seed: 19})
	anyForced := false
	for _, row := range tb.Rows {
		forced := atoi(t, row[3])
		if forced > 0 {
			anyForced = true
		}
		if maxRad, bound := atoi(t, row[4]), atoi(t, row[5]); maxRad > bound {
			t.Fatalf("row %v: radius %d > bound %d", row, maxRad, bound)
		}
	}
	if !anyForced {
		t.Fatal("no forced instances constructed in any family")
	}
}

// E9: the structural lemmas admit zero violations.
func TestClaimE9ZeroViolations(t *testing.T) {
	tb := E9Structure(Config{Quick: true, Seed: 23})
	for _, row := range tb.Rows {
		if v10, v13 := atoi(t, row[3]), atoi(t, row[4]); v10 != 0 || v13 != 0 {
			t.Fatalf("row %v: lemma violations (%d, %d)", row, v10, v13)
		}
	}
}

// E1: rounds normalized by (log log n)² stay within a loose constant
// band — the quick-mode form of the Theorem 1 shape.
func TestClaimE1NormalizedRoundsBounded(t *testing.T) {
	tb := E1SmallDelta(Config{Quick: true, Seed: 29})
	for _, row := range tb.Rows {
		norm := atof(t, row[4])
		if norm <= 0 || norm > 200 {
			t.Fatalf("row %v: rounds/(loglog n)² = %v outside sanity band", row, norm)
		}
	}
}

// E13: batched repair rounds must scale with batches, not holes — on every
// row the batched charge beats the summed charge by at least 5x and the
// batch count stays tiny while the hole count grows.
func TestClaimE13BatchedBeatsSummed(t *testing.T) {
	tb := E13RepairTail(Config{Quick: true, Seed: 17, Strict: true})
	if len(tb.Rows) == 0 {
		t.Fatal("E13 produced no rows")
	}
	for _, row := range tb.Rows {
		holes := atoi(t, row[2])
		batches := atoi(t, row[3])
		summed := atoi(t, row[4])
		batched := atoi(t, row[5])
		if batched*5 > summed {
			t.Fatalf("row %v: batched %d not at least 5x below summed %d", row, batched, summed)
		}
		if batches > 2 {
			t.Fatalf("row %v: %d batches for the constructed workloads, want <= 2", row, batches)
		}
		if holes <= batches {
			t.Fatalf("row %v: %d holes vs %d batches — workload does not force batching", row, holes, batches)
		}
		if ratio := atof(t, row[6]); ratio >= 1 {
			t.Fatalf("row %v: ratio %.4f >= 1", row, ratio)
		}
	}
}

// E10: the notes describe the rows benchsuite prints, at quick scale for
// seeds 1-3 and (outside -short) at full scale for its default seed.
func TestClaimE10NotesMatchRows(t *testing.T) {
	type row struct{ tnodes, survivors, rounds float64 }
	read := func(cfg Config) (map[string]row, float64) {
		tb := E10Ablations(cfg)
		rows := map[string]row{}
		for _, r := range tb.Rows {
			rows[strings.Fields(r[0])[0]] = row{atof(t, r[6]), atof(t, r[7]), atof(t, r[10])}
		}
		return rows, float64(atoi(t, tb.Rows[0][2]))
	}
	// r=2 takes about a third of the defaults' rounds and r=8 about a
	// quarter more, at either scale.
	checkRounds := func(scale string, rows map[string]row) {
		def := rows["paper"].rounds
		if r2, r8 := rows["r=2"].rounds/def, rows["r=8"].rounds/def; r2 < 0.25 || r2 > 0.45 || r8 < 1.15 || r8 > 1.35 {
			t.Fatalf("%s: r=2 reads %.2f and r=8 %.2f of the defaults' rounds", scale, r2, r8)
		}
	}

	for seed := int64(1); seed <= 3; seed++ {
		rows, n := read(Config{Quick: true, Seed: seed})
		whole := 0
		for _, r := range rows {
			if r.survivors == n {
				whole++
			}
		}
		if whole <= len(rows)/2 {
			t.Fatalf("quick seed %d: %d of %d rows keep every node, want most", seed, whole, len(rows))
		}
		checkRounds(fmt.Sprintf("quick seed %d", seed), rows)
	}
	if testing.Short() {
		return
	}

	rows, n := read(Config{Seed: 1})
	def := rows["paper"]
	for name, r := range rows {
		if r.tnodes > rows["b=2"].tnodes {
			t.Fatalf("full %s: %.2f T-nodes, b=2 %.2f; b=2 should keep the most", name, r.tnodes, rows["b=2"].tnodes)
		}
	}
	switch {
	case rows["b=2"].survivors != 0:
		t.Fatalf("full b=2: %.2f survivors, want 0", rows["b=2"].survivors)
	case rows["b=12"].tnodes >= def.tnodes || rows["b=12"].survivors <= n/2,
		rows["p×4"].tnodes >= def.tnodes || rows["p×4"].survivors <= n/2:
		t.Fatalf("full: b=12 %+v and p×4 %+v should keep fewer T-nodes than the defaults %+v and leave most of %v nodes", rows["b=12"], rows["p×4"], def, n)
	case rows["p÷4"].tnodes > def.tnodes:
		t.Fatalf("full p÷4: %+v, defaults %+v", rows["p÷4"], def)
	case rows["r=2"].survivors < 0.9*n:
		t.Fatalf("full r=2: %+v of %v nodes", rows["r=2"], n)
	case rows["r=8"].survivors != def.survivors:
		t.Fatalf("full r=8: %+v, defaults %+v", rows["r=8"], def)
	}
	checkRounds("full", rows)
}
