package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// benchmarkSpec is the part of BENCHMARK.json the study modes need.
type benchmarkSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(root string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

// pass runs this same binary once, as the driver would, and returns the
// metrics of the JSON object on the last line of its output. A fresh process
// per pass keeps setup_s and peak_rss_mb honest.
func pass(workload string, seed int64, seconds int) (map[string]metric, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(seconds))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line is not a result: %w", workload, seed, err)
	}
	if !res.Correct || res.Failed > 0 {
		return nil, fmt.Errorf("%s seed %d: correct=%v failed=%d", workload, seed, res.Correct, res.Failed)
	}
	return res.Metrics, nil
}

// passes runs n passes of every workload, pass i with seed seedOf(i) (the
// driver also gives every run of a set another seed), and returns
// samples[workload][metric]. Workloads take turns, so drift over the study's
// minutes hits all alike.
func passes(spec *benchmarkSpec, n int, seedOf func(i int) int64) (map[string]map[string][]float64, error) {
	samples := map[string]map[string][]float64{}
	for i := 0; i < n; i++ {
		for _, w := range spec.Workloads {
			m, err := pass(w.Name, seedOf(i), spec.RunSeconds)
			if err != nil {
				return nil, err
			}
			if samples[w.Name] == nil {
				samples[w.Name] = map[string][]float64{}
			}
			for name, v := range m {
				samples[w.Name][name] = append(samples[w.Name][name], v.Value)
			}
			fmt.Fprintf(os.Stderr, "pass %d/%d %s done\n", i+1, n, w.Name)
		}
	}
	return samples, nil
}

// noiseStudy prints, for every end-to-end metric of every workload, the
// median, quartiles and spreads over n passes of unchanged code, as the
// markdown table committed as NOISE.md. The IQR column is the spread the
// driver holds against the bound.
func noiseStudy(root string, n int) error {
	spec, err := readSpec(root)
	if err != nil {
		return err
	}
	samples, err := passes(spec, n, func(i int) int64 { return int64(i + 1) })
	if err != nil {
		return err
	}
	fmt.Printf("%d passes per workload, seeds 1..%d, %d s each.\n\n", n, n, spec.RunSeconds)
	fmt.Println("| workload | metric | unit | median | q1 | q3 | IQR/median | (max-min)/median | bound |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|")
	worst := 0.0
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			v := samples[w.Name][m.Name]
			if len(v) != n {
				return fmt.Errorf("%s reported %s %d times in %d passes", w.Name, m.Name, len(v), n)
			}
			q1, q2, q3 := quartiles(v)
			lo, hi := slices.Min(v), slices.Max(v)
			fmt.Printf("| %s | %s | %s | %.4g | %.4g | %.4g | %.2f%% | %.2f%% | %.0f%% |\n",
				w.Name, m.Name, m.Unit, q2, q1, q3, 100*(q3-q1)/q2, 100*(hi-lo)/q2, 100*m.Bound)
			if m.Name != "setup_s" {
				worst = max(worst, (q3-q1)/q2/m.Bound)
			}
		}
	}
	fmt.Printf("\nWidest IQR/median relative to its bound (setup_s aside): %.2f of the bound.\n", worst)
	return nil
}

// agreement runs two sets A and B of n passes each of the same code,
// alternating ABAB, and fails if any metric's set medians differ by more
// than its bound. Pass i of either set uses seed i+1, so the sets see the same
// inputs and differ only in when they ran.
func agreement(root string, n int) error {
	spec, err := readSpec(root)
	if err != nil {
		return err
	}
	samples, err := passes(spec, 2*n, func(i int) int64 { return int64(i/2 + 1) })
	if err != nil {
		return err
	}
	fmt.Printf("Sets A and B: %d passes each per workload, alternating ABAB, %d s per pass.\n\n", n, spec.RunSeconds)
	fmt.Println("| workload | metric | unit | median A | median B | B vs A | bound | |")
	fmt.Println("|---|---|---|---|---|---|---|---|")
	disagree := 0
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			var a, b []float64
			for i, v := range samples[w.Name][m.Name] {
				if i%2 == 0 {
					a = append(a, v)
				} else {
					b = append(b, v)
				}
			}
			ma, mb := median(a), median(b)
			diff := (mb - ma) / ma
			verdict := "ok"
			if diff > m.Bound || -diff > m.Bound {
				verdict = "DISAGREE"
				disagree++
			}
			fmt.Printf("| %s | %s | %s | %.4g | %.4g | %+.2f%% | %.0f%% | %s |\n",
				w.Name, m.Name, m.Unit, ma, mb, 100*diff, 100*m.Bound, verdict)
		}
	}
	if disagree > 0 {
		return fmt.Errorf("%d metrics differ between two sets of runs of the same code by more than their bound", disagree)
	}
	fmt.Println("\nEvery metric's set medians agree within its bound.")
	return nil
}
