package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// Result is one benchmark measurement in a baseline file.
type Result struct {
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"b_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	MBPerSec    float64 `json:"mb_per_s,omitempty"`
}

// Baseline is the on-disk BENCH_<date>.json schema: environment metadata
// plus one Result per suite case. RecordedAt orders baselines; file names
// are only for humans.
type Baseline struct {
	Schema     int       `json:"schema"`
	RecordedAt time.Time `json:"recorded_at"`
	Label      string    `json:"label,omitempty"`
	// Filter records the -filter regexp a partial recording was made with.
	// Partial baselines are never picked as diff anchors by LatestBaseline:
	// a full run diffing against a subset recording would silently shrink
	// the regression gate to that subset.
	Filter     string            `json:"filter,omitempty"`
	GoVersion  string            `json:"go"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

// testingInit makes b.Fatal/b.Error usable under testing.Benchmark in a
// plain binary: without testing.Init the testing package's log path nil-
// dereferences and the whole process panics instead of returning a zero
// result. Init registers flags, so it must run exactly once.
var testingInit sync.Once

// Record runs every suite case whose name matches filter (nil = all)
// through testing.Benchmark (each case runs for the standard ~1s benchtime)
// and returns the populated baseline. progress, when non-nil, receives one
// line per completed case. A case that fails (b.Fatal/b.Error inside the
// benchmark body makes testing.Benchmark return a zero result) is omitted
// from the baseline and reported in the returned error, so a broken
// benchmark can never silently become the regression anchor future runs
// diff against.
func Record(label string, filter *regexp.Regexp, progress func(string)) (*Baseline, error) {
	testingInit.Do(testing.Init)
	bl := &Baseline{
		Schema:     1,
		RecordedAt: time.Now().UTC(),
		Label:      label,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Benchmarks: make(map[string]Result),
	}
	if filter != nil {
		bl.Filter = filter.String()
	}
	var failed []string
	for _, c := range Suite() {
		if filter != nil && !filter.MatchString(c.Name) {
			continue
		}
		r := testing.Benchmark(c.F)
		if r.N <= 0 {
			failed = append(failed, c.Name)
			if progress != nil {
				progress(fmt.Sprintf("%-40s FAILED", c.Name))
			}
			continue
		}
		res := Result{
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		if r.Bytes > 0 && r.T > 0 {
			res.MBPerSec = float64(r.Bytes) * float64(r.N) / 1e6 / r.T.Seconds()
		}
		bl.Benchmarks[c.Name] = res
		if progress != nil {
			progress(fmt.Sprintf("%-40s %12.0f ns/op %8d B/op %6d allocs/op",
				c.Name, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp))
		}
	}
	if len(failed) > 0 {
		return bl, fmt.Errorf("bench: %d case(s) failed: %s", len(failed), strings.Join(failed, ", "))
	}
	return bl, nil
}

// FileName returns the canonical baseline file name for the given day and
// optional label, e.g. BENCH_2026-07-28_seed.json.
func FileName(t time.Time, label string) string {
	name := "BENCH_" + t.Format("2006-01-02")
	if label != "" {
		name += "_" + label
	}
	return name + ".json"
}

// Save writes the baseline to path as indented JSON.
func (bl *Baseline) Save(path string) error {
	data, err := json.MarshalIndent(bl, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Load reads a baseline file.
func Load(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bl Baseline
	if err := json.Unmarshal(data, &bl); err != nil {
		return nil, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	return &bl, nil
}

// LatestBaseline finds the BENCH_*.json file under dir with the newest
// RecordedAt stamp, excluding the given path (so a fresh recording does not
// diff against itself) and excluding partial (filtered) recordings — a full
// run diffing against a subset would silently shrink the regression gate to
// that subset. It returns "" when no other baseline exists.
func LatestBaseline(dir, exclude string) (string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return "", err
	}
	best := ""
	var bestAt time.Time
	for _, m := range matches {
		if sameFile(m, exclude) {
			continue
		}
		bl, err := Load(m)
		if err != nil {
			continue // skip unreadable/foreign files rather than failing
		}
		if bl.Filter != "" {
			continue // partial recording: never an anchor
		}
		if best == "" || bl.RecordedAt.After(bestAt) {
			best, bestAt = m, bl.RecordedAt
		}
	}
	return best, nil
}

func sameFile(a, b string) bool {
	if b == "" {
		return false
	}
	aa, errA := filepath.Abs(a)
	bb, errB := filepath.Abs(b)
	return errA == nil && errB == nil && aa == bb
}

// DiffLine is one row of a baseline comparison.
type DiffLine struct {
	Name       string
	OldNs      float64
	NewNs      float64
	Delta      float64 // (new-old)/old; +0.25 = 25% slower
	Regression bool    // Delta exceeds the threshold
	Missing    bool    // the old baseline has no such case: nothing to compare
	OldAllocs  int64
	NewAllocs  int64
}

// Diff compares new against old case-by-case, one line per case in new, in
// name order. threshold is the relative ns/op slowdown tolerated before a
// case is flagged as a regression (e.g. 0.15 = 15%); a negative threshold
// disables flagging. A case old lacks is marked Missing, since a gate must
// not pass a case it never compared. Cases only in old are ignored, so a
// filtered recording can diff against a full baseline.
func Diff(old, new *Baseline, threshold float64) []DiffLine {
	names := make([]string, 0, len(new.Benchmarks))
	for name := range new.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	lines := make([]DiffLine, 0, len(names))
	for _, name := range names {
		o, ok := old.Benchmarks[name]
		n := new.Benchmarks[name]
		d := DiffLine{
			Name:      name,
			OldNs:     o.NsPerOp,
			NewNs:     n.NsPerOp,
			Missing:   !ok,
			OldAllocs: o.AllocsPerOp,
			NewAllocs: n.AllocsPerOp,
		}
		if o.NsPerOp > 0 {
			d.Delta = (n.NsPerOp - o.NsPerOp) / o.NsPerOp
		}
		d.Regression = threshold >= 0 && d.Delta > threshold
		lines = append(lines, d)
	}
	return lines
}

// FormatDiff renders diff lines as an aligned text table.
func FormatDiff(lines []DiffLine) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-40s %14s %14s %8s %s\n", "benchmark", "old ns/op", "new ns/op", "delta", "allocs old->new")
	for _, d := range lines {
		if d.Missing {
			fmt.Fprintf(&sb, "%-40s %14s %14.0f %8s %6s -> %-6d  MISSING FROM ANCHOR\n",
				d.Name, "-", d.NewNs, "-", "-", d.NewAllocs)
			continue
		}
		flag := ""
		if d.Regression {
			flag = "  REGRESSION"
		}
		fmt.Fprintf(&sb, "%-40s %14.0f %14.0f %+7.1f%% %6d -> %-6d%s\n",
			d.Name, d.OldNs, d.NewNs, d.Delta*100, d.OldAllocs, d.NewAllocs, flag)
	}
	return sb.String()
}
