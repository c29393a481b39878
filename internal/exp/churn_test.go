package exp

import (
	"bytes"
	"strings"
	"testing"
)

func churnRow(n, incrRounds, fullRounds int, incrMs, fullMs float64) ChurnMutationRow {
	return ChurnMutationRow{Family: "rr4", N: n, Edges: 2 * n, Delta: 8,
		Mutations: n / 100, Conflicts: n / 200,
		IncrRounds: incrRounds, IncrMillis: incrMs,
		FullRounds: fullRounds, FullMillis: fullMs,
		RoundsRatio: ratio(incrRounds, fullRounds), WallRatio: incrMs / fullMs}
}

func TestChurnReportRoundTrip(t *testing.T) {
	rep := &ChurnReport{Header: Header{Schema: ChurnSchema, GoMaxProcs: 1, Quick: true, Seed: 5},
		MutationRows: []ChurnMutationRow{churnRow(10000, 40, 300, 12, 800)},
		FaultRows:    []ChurnFaultRow{{Algorithm: "netdec", Plan: "drop-2%", N: 512, Rounds: 200, Verified: true}}}
	var buf bytes.Buffer
	if err := WriteDoc(&buf, rep); err != nil {
		t.Fatal(err)
	}
	got := &ChurnReport{}
	if err := ReadDoc(&buf, ChurnSchema, got); err != nil {
		t.Fatal(err)
	}
	if len(got.MutationRows) != 1 || len(got.FaultRows) != 1 || got.Seed != 5 ||
		got.MutationRows[0].IncrRounds != 40 || !got.FaultRows[0].Verified || got.FaultRows[0].Algorithm != "netdec" {
		t.Fatalf("round trip lost data: %+v", got)
	}
	if err := ReadDoc(strings.NewReader(`{"schema":"bogus/v9"}`), ChurnSchema, &ChurnReport{}); err == nil {
		t.Fatal("unknown schema must be rejected")
	}
}

func TestChurnGate(t *testing.T) {
	healed := ChurnFaultRow{Algorithm: "randomized", Plan: "drop-2%", N: 512, Verified: true}
	healed2 := ChurnFaultRow{Algorithm: "netdec", Plan: "drop-2%", N: 512, Verified: true}
	dead := ChurnFaultRow{Algorithm: "randomized", Plan: "crash-burst", N: 512, Unrecoverable: true}

	ok := &ChurnReport{Header: Header{Schema: ChurnSchema},
		MutationRows: []ChurnMutationRow{
			churnRow(10000, 400, 300, 900, 800), // small n loses: not gated
			churnRow(100000, 40, 300, 12, 2000),
		},
		FaultRows: []ChurnFaultRow{healed, healed2}}
	if err := ChurnGate(ok); err != nil {
		t.Fatalf("incremental wins at largest n and every fault row heals, got %v", err)
	}

	// Every algorithm × plan run must heal: one unhealed row fails.
	oneDead := &ChurnReport{Header: Header{Schema: ChurnSchema},
		MutationRows: []ChurnMutationRow{churnRow(100000, 40, 300, 12, 2000)},
		FaultRows:    []ChurnFaultRow{healed, dead, healed2}}
	if err := ChurnGate(oneDead); err == nil || !strings.Contains(err.Error(), "randomized under fault plan crash-burst") {
		t.Fatalf("one unhealed fault row must fail the gate naming it, got %v", err)
	}
	noFaults := &ChurnReport{Header: Header{Schema: ChurnSchema},
		MutationRows: []ChurnMutationRow{churnRow(100000, 40, 300, 12, 2000)}}
	if err := ChurnGate(noFaults); err == nil {
		t.Fatal("a report without fault rows must fail, not pass vacuously")
	}

	badRounds := &ChurnReport{Header: Header{Schema: ChurnSchema},
		MutationRows: []ChurnMutationRow{churnRow(100000, 400, 300, 12, 2000)},
		FaultRows:    []ChurnFaultRow{healed}}
	if err := ChurnGate(badRounds); err == nil {
		t.Fatal("incremental losing on rounds must fail the gate")
	}

	badWall := &ChurnReport{Header: Header{Schema: ChurnSchema},
		MutationRows: []ChurnMutationRow{churnRow(100000, 40, 300, 2500, 2000)},
		FaultRows:    []ChurnFaultRow{healed}}
	if err := ChurnGate(badWall); err == nil {
		t.Fatal("incremental losing on wall time must fail the gate")
	}

	// The wins must be strict: equal rounds, or equal wall time, fail.
	tieRounds := &ChurnReport{Header: Header{Schema: ChurnSchema},
		MutationRows: []ChurnMutationRow{churnRow(100000, 300, 300, 12, 2000)},
		FaultRows:    []ChurnFaultRow{healed}}
	if err := ChurnGate(tieRounds); err == nil {
		t.Fatal("incremental tying the full pipeline on rounds must fail the gate")
	}
	tieWall := &ChurnReport{Header: Header{Schema: ChurnSchema},
		MutationRows: []ChurnMutationRow{churnRow(100000, 40, 300, 2000, 2000)},
		FaultRows:    []ChurnFaultRow{healed}}
	if err := ChurnGate(tieWall); err == nil {
		t.Fatal("incremental tying the full pipeline on wall time must fail the gate")
	}

	noHeal := &ChurnReport{Header: Header{Schema: ChurnSchema},
		MutationRows: []ChurnMutationRow{churnRow(100000, 40, 300, 12, 2000)},
		FaultRows:    []ChurnFaultRow{dead}}
	if err := ChurnGate(noHeal); err == nil {
		t.Fatal("no healed fault row must fail the gate")
	}

	empty := &ChurnReport{Header: Header{Schema: ChurnSchema}}
	if err := ChurnGate(empty); err == nil {
		t.Fatal("empty report must fail, not pass vacuously")
	}
}

// TestChurnRecoverySmoke runs E16 at a tiny scale and checks the report's
// shape and self-consistency: every mutation row verified both colorings
// (the runner panics otherwise), ratios match their numerators, and the
// fault rows all resolved to a typed outcome.
func TestChurnRecoverySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("E16 measurement is slow")
	}
	rep := ChurnRecovery(Config{Quick: true, Seed: 3})
	if rep.Schema != ChurnSchema || !rep.Quick {
		t.Fatalf("report header: %+v", rep)
	}
	if len(rep.MutationRows) != 2 || len(rep.FaultRows) != len(churnAlgorithms)*3 {
		t.Fatalf("rows = %d mutation / %d fault, want 2/%d", len(rep.MutationRows), len(rep.FaultRows), len(churnAlgorithms)*3)
	}
	for _, r := range rep.MutationRows {
		if r.Mutations == 0 || r.Inserts == 0 {
			t.Fatalf("vacuous mutation row: %+v", r)
		}
		if r.Conflicts == 0 {
			t.Fatalf("mutation stream left no conflicts (nothing measured): %+v", r)
		}
		if r.FullRounds <= 0 || r.FullMillis <= 0 {
			t.Fatalf("full pipeline not measured: %+v", r)
		}
		if got := ratio(r.IncrRounds, r.FullRounds); got != r.RoundsRatio {
			t.Fatalf("rounds ratio %v inconsistent with %d/%d", r.RoundsRatio, r.IncrRounds, r.FullRounds)
		}
	}
	for _, r := range rep.FaultRows {
		if r.Verified == r.Unrecoverable {
			t.Fatalf("fault row without a typed outcome: %+v", r)
		}
	}
}

// TestChurnFaultCellsGolden pins E16's twelve fault cells at quick scale
// (benchsuite's seed 1, n = 512): every algorithm heals under every plan,
// with these pipeline rounds and Recolor conflicts. A cell that stops
// healing, or moves, is a change to the fault path, not noise: the fault
// schedule is a pure hash of the plan, and every pipeline is
// deterministic.
func TestChurnFaultCellsGolden(t *testing.T) {
	want := []struct {
		alg, plan         string
		rounds, conflicts int
	}{
		{"randomized", "drop-2%", 1250, 0},
		{"randomized", "dup+delay", 887, 0},
		{"randomized", "crash-burst", 25488, 0},
		{"deterministic", "drop-2%", 900, 2},
		{"deterministic", "dup+delay", 856, 6},
		{"deterministic", "crash-burst", 2932, 1},
		{"netdec", "drop-2%", 628, 1},
		{"netdec", "dup+delay", 332, 6},
		{"netdec", "crash-burst", 342, 0},
		{"baseline", "drop-2%", 854, 1},
		{"baseline", "dup+delay", 988, 0},
		{"baseline", "crash-burst", 3113, 0},
	}
	rows := churnFaultRows(Config{Quick: true, Seed: 1}, 512)
	if len(rows) != len(want) {
		t.Fatalf("%d fault rows, want %d", len(rows), len(want))
	}
	for i, w := range want {
		r := rows[i]
		if r.Algorithm != w.alg || r.Plan != w.plan || !r.Verified || r.Rounds != w.rounds || r.Conflicts != w.conflicts {
			t.Errorf("row %d: %s/%s verified=%v rounds %d conflicts %d, want %s/%s healed, rounds %d conflicts %d",
				i, r.Algorithm, r.Plan, r.Verified, r.Rounds, r.Conflicts, w.alg, w.plan, w.rounds, w.conflicts)
		}
	}
}
