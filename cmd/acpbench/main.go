// Command acpbench regenerates the paper's tables and figures on the
// calibrated testbed simulator (and, for Figs. 6-7, the real training
// substrate). Run a single experiment by id or everything at once:
//
//	acpbench -exp table3
//	acpbench -exp fig10
//	acpbench -exp all -epochs 20
//
// The experiment ids mirror the paper: table1, table2, table3, fig2, fig3,
// fig5, fig6, fig7, fig8, fig9, fig10, fig11a, fig11b, fig12, fig13, micro.
//
// With -baseline, acpbench instead runs the micro-benchmark suite
// (internal/bench, the same cases bench_test.go exposes to `go test -bench`),
// writes a BENCH_<date>[_<label>].json perf baseline with ns/op, B/op and
// allocs/op per case, and diffs it against the most recent prior baseline:
//
//	acpbench -baseline                      # record + diff vs latest
//	acpbench -baseline -label opt           # BENCH_<date>_opt.json
//	acpbench -baseline -against BENCH_x.json -threshold 0.10
//	acpbench -baseline -filter '^(Sign|TopK)' # run a subset of the suite
//
// A case whose ns/op regresses by more than -threshold (default 0.15 = 15%)
// makes acpbench exit with status 1; set -threshold -1 to disable
// enforcement. -filter restricts both the recording and the diff to cases
// matching the regexp, so a filtered run gates exactly its subset against a
// full-suite anchor. Every recorded case must exist in the anchor: a case
// it lacks was never compared, so acpbench names it and exits with status 1.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"time"

	"acpsgd/internal/bench"
	"acpsgd/internal/exp"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("acpbench", flag.ContinueOnError)
	expID := fs.String("exp", "all", "experiment id or 'all' ("+strings.Join(exp.Names(), ", ")+")")
	epochs := fs.Int("epochs", 0, "epochs for the convergence experiments (fig6/fig7); 0 = default")
	workers := fs.Int("workers", 0, "workers for the convergence experiments; 0 = default (4)")
	seed := fs.Int64("seed", 0, "random seed for the convergence experiments; 0 = default")
	list := fs.Bool("list", false, "list experiment ids and exit")
	baseline := fs.Bool("baseline", false, "run the micro-bench suite and record a BENCH_<date>.json perf baseline")
	label := fs.String("label", "", "suffix for the baseline file name (BENCH_<date>_<label>.json)")
	outDir := fs.String("out", ".", "directory for baseline files")
	against := fs.String("against", "", "baseline file to diff against (default: most recent BENCH_*.json in -out)")
	threshold := fs.Float64("threshold", 0.15, "relative ns/op slowdown flagged as a regression; negative disables")
	filter := fs.String("filter", "", "regexp restricting -baseline to matching suite cases")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var filterRe *regexp.Regexp
	if *filter != "" {
		re, err := regexp.Compile(*filter)
		if err != nil {
			fmt.Fprintf(os.Stderr, "acpbench: bad -filter: %v\n", err)
			return 2
		}
		filterRe = re
	}
	if *list {
		fmt.Println(strings.Join(exp.Names(), "\n"))
		return 0
	}
	if *baseline {
		return runBaseline(*outDir, *label, *against, *threshold, filterRe)
	}
	if filterRe != nil {
		fmt.Fprintln(os.Stderr, "acpbench: -filter only applies with -baseline")
		return 2
	}
	opts := exp.ConvOptions{Epochs: *epochs, Workers: *workers, Seed: *seed}

	ids := exp.Names()
	if *expID != "all" {
		ids = strings.Split(*expID, ",")
	}
	for _, id := range ids {
		table, err := exp.Run(strings.TrimSpace(id), opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "acpbench: %v\n", err)
			return 1
		}
		fmt.Println(table)
	}
	return 0
}

// runBaseline records a fresh perf baseline and diffs it against the
// previous one. Exit status 1 means at least one case regressed beyond the
// threshold.
func runBaseline(outDir, label, against string, threshold float64, filter *regexp.Regexp) int {
	total := 0
	for _, c := range bench.Suite() {
		if filter == nil || filter.MatchString(c.Name) {
			total++
		}
	}
	if total == 0 {
		fmt.Fprintln(os.Stderr, "acpbench: -filter matches no suite cases; the gate would pass vacuously")
		return 1
	}
	if fi, err := os.Stat(outDir); err != nil || !fi.IsDir() {
		fmt.Fprintf(os.Stderr, "acpbench: -out %s is not a directory\n", outDir)
		return 2
	}
	fmt.Printf("acpbench: recording perf baseline (%d cases, ~1s each)\n", total)
	bl, err := bench.Record(label, filter, func(line string) { fmt.Println(line) })
	if err != nil {
		fmt.Fprintf(os.Stderr, "acpbench: %v\n", err)
		return 1
	}
	path := filepath.Join(outDir, bench.FileName(time.Now(), label))
	// Never clobber an existing baseline (same day, same label): uniquify so
	// the previous recording stays available as the comparison anchor.
	for n := 2; ; n++ {
		if _, err := os.Stat(path); err != nil {
			break // not there yet, or unreadable: Save reports the latter
		}
		suffix := fmt.Sprintf("%d", n)
		if label != "" {
			suffix = label + "-" + suffix
		}
		path = filepath.Join(outDir, bench.FileName(time.Now(), suffix))
	}
	if err := bl.Save(path); err != nil {
		fmt.Fprintf(os.Stderr, "acpbench: save baseline: %v\n", err)
		return 1
	}
	fmt.Printf("acpbench: wrote %s\n", path)

	prev := against
	if prev == "" {
		p, err := bench.LatestBaseline(outDir, path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "acpbench: scan baselines: %v\n", err)
			return 1
		}
		prev = p
	}
	if prev == "" {
		fmt.Println("acpbench: no previous baseline to diff against")
		return 0
	}
	old, err := bench.Load(prev)
	if err != nil {
		fmt.Fprintf(os.Stderr, "acpbench: %v\n", err)
		return 1
	}
	lines := bench.Diff(old, bl, threshold)
	fmt.Printf("acpbench: diff vs %s (threshold %+.0f%%)\n", prev, threshold*100)
	fmt.Print(bench.FormatDiff(lines))
	var missing []string
	regressed := false
	for _, d := range lines {
		if d.Missing {
			missing = append(missing, d.Name)
		}
		regressed = regressed || d.Regression
	}
	code := 0
	if len(missing) > 0 {
		// A renamed or new case must not turn the gate green by going
		// uncompared.
		fmt.Fprintf(os.Stderr, "acpbench: %s lacks %d recorded case(s), so they were not gated: %s\n",
			prev, len(missing), strings.Join(missing, ", "))
		code = 1
	}
	if regressed {
		fmt.Fprintln(os.Stderr, "acpbench: perf regression detected")
		code = 1
	}
	return code
}
