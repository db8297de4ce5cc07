package bench

import (
	"path/filepath"
	"testing"
	"time"
)

// TestLatestBaselineSkipsPartialRecordings: a -filter recording must never
// become the diff anchor for later full runs — it would silently shrink the
// regression gate to the filtered subset.
func TestLatestBaselineSkipsPartialRecordings(t *testing.T) {
	dir := t.TempDir()
	full := &Baseline{
		Schema:     1,
		RecordedAt: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC),
		Benchmarks: map[string]Result{"MatMul256": {NsPerOp: 1}},
	}
	partial := &Baseline{
		Schema:     1,
		RecordedAt: time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC), // newer
		Filter:     "^Sign",
		Benchmarks: map[string]Result{"SignEncode1M": {NsPerOp: 1}},
	}
	fullPath := filepath.Join(dir, "BENCH_2026-01-01.json")
	if err := full.Save(fullPath); err != nil {
		t.Fatal(err)
	}
	if err := partial.Save(filepath.Join(dir, "BENCH_2026-06-01_sub.json")); err != nil {
		t.Fatal(err)
	}
	got, err := LatestBaseline(dir, "")
	if err != nil {
		t.Fatal(err)
	}
	if got != fullPath {
		t.Fatalf("LatestBaseline = %q, want the full recording %q (partial must be skipped)", got, fullPath)
	}

	// With only partial recordings present there is no valid anchor.
	got, err = LatestBaseline(t.TempDir(), "")
	if err != nil || got != "" {
		t.Fatalf("empty dir: got %q, %v", got, err)
	}
}

// TestLatestBaselineExcludesSelf guards the fresh-recording exclusion.
func TestLatestBaselineExcludesSelf(t *testing.T) {
	dir := t.TempDir()
	bl := &Baseline{
		Schema:     1,
		RecordedAt: time.Now().UTC(),
		Benchmarks: map[string]Result{"MatMul256": {NsPerOp: 1}},
	}
	path := filepath.Join(dir, "BENCH_self.json")
	if err := bl.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LatestBaseline(dir, path)
	if err != nil || got != "" {
		t.Fatalf("self-exclusion failed: got %q, %v", got, err)
	}
}

// TestDiffNamesCasesMissingFromAnchor: a recorded case the anchor lacks was
// never compared, so Diff must report it rather than drop it — otherwise a
// gate passes a case it did not gate. Cases only in the anchor stay ignored.
func TestDiffNamesCasesMissingFromAnchor(t *testing.T) {
	old := &Baseline{Benchmarks: map[string]Result{
		"TCPFrameCRC4x1M": {NsPerOp: 100},
		"OnlyInAnchor":    {NsPerOp: 100},
	}}
	cur := &Baseline{Benchmarks: map[string]Result{
		"TCPFrameCRC4x1M": {NsPerOp: 100},
		"MatMul256":       {NsPerOp: 1e9},
	}}
	lines := Diff(old, cur, 4.0)
	if len(lines) != 2 || lines[0].Name != "MatMul256" || lines[1].Name != "TCPFrameCRC4x1M" {
		t.Fatalf("Diff lines = %+v, want one per recorded case: MatMul256, TCPFrameCRC4x1M", lines)
	}
	if !lines[0].Missing || lines[0].Regression {
		t.Errorf("MatMul256: Missing=%v Regression=%v, want missing and not a regression", lines[0].Missing, lines[0].Regression)
	}
	if lines[1].Missing || lines[1].Regression {
		t.Errorf("TCPFrameCRC4x1M: Missing=%v Regression=%v, want a plain comparison", lines[1].Missing, lines[1].Regression)
	}
}
