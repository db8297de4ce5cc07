// Command benchmark is the repository's benchmark: end-to-end step time and
// time-to-loss of S-SGD, Sign-SGD, Top-k, Power-SGD and ACP-SGD on real
// 2-rank train.Clusters under three link regimes, plus a traced run that
// prices every layer underneath. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"

	"acpsgd/internal/tensor"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload to run: mlp_tcp, mlp_slowlink or tf_latency")
	seed := flag.Int64("seed", 1, "generates the workload's dataset")
	seconds := flag.Float64("seconds", 30, "how long to measure")
	trace := flag.Int("trace", 0, "1: traced run that prints the per-layer metrics instead of the end-to-end ones")
	noise := flag.Int("noise", 0, "run this many passes of every workload and print the noise study (NOISE.md)")
	agree := flag.Int("agree", 0, "run two alternating sets of this many passes and check they agree (AGREEMENT.md)")
	flag.Parse()

	root, err := repoRoot()
	if err != nil {
		return err
	}
	switch {
	case *noise > 0:
		return noiseStudy(root, *noise)
	case *agree > 0:
		return agreement(root, *agree)
	}

	// One compute stream per rank ("node") on two cores; more Ps than cores
	// cost time and add noise.
	runtime.GOMAXPROCS(2)
	tensor.SetParallelism(1)

	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	var res *result
	if *trace != 0 {
		var rec *recorder
		if res, rec, err = runTraced(w, *seed, *seconds, tracePlan, root); err == nil && rec != nil {
			err = rec.writeChrome(traceFile(root, w.name))
		}
	} else {
		res, err = runEndToEnd(w, *seed, *seconds, defaultPlan)
	}
	if err != nil {
		return err
	}
	res.print()
	if !res.Correct {
		return errors.New("an output check failed")
	}
	return nil
}

// repoRoot finds the repository root (the directory holding BENCHMARK.json)
// from the working directory: the root itself, or benchmark/ inside it.
func repoRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("BENCHMARK.json not found: run from the repository root or from benchmark/")
}

// print writes every metric by name with its unit, the informational notes,
// and last the one-line JSON object the driver reads.
func (r *result) print() {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-40s %14.6f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	for _, n := range r.notes {
		fmt.Println("#", n)
	}
	fmt.Printf("ops_attempted %d  ops_failed %d  correct %v\n", r.Attempted, r.Failed, r.Correct)
	line, err := json.Marshal(r)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Println(string(line))
}
