package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFailingGateKeepsReport runs quick E12 against a baseline that shares
// its path n=10000 row at a rounds-per-ref no host reaches: the delta gate
// must fail, and the fresh report must already be on disk.
func TestFailingGateKeepsReport(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "baseline.json")
	doc := `{"schema": "deltacolor/bench-runtime/v4", "gomaxprocs": 1, "quick": false, "seed": 1, "ref_score": 1,
		"rows": [{"family": "path", "n": 10000, "rounds_per_sec": 1e12}]}`
	if err := os.WriteFile(base, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out")
	err := run([]string{"-quick", "-only", "E12", "-json", out, "-baseline", base}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "benchmark delta: path n=10000 regressed") {
		t.Fatalf("run = %v, want the path n=10000 delta error", err)
	}
	if _, err := os.Stat(filepath.Join(out, "BENCH_runtime_quick.json")); err != nil {
		t.Fatalf("report not written before the gate failed: %v", err)
	}
}

func TestUnknownExperiment(t *testing.T) {
	if err := run([]string{"-only", "E99"}, io.Discard, io.Discard); err == nil {
		t.Fatal("-only E99 must return an error")
	}
}
