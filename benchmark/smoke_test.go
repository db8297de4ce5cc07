package main

import (
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"acpsgd/internal/data"
	"acpsgd/internal/models"
	"acpsgd/internal/nn"
	"acpsgd/internal/tensor"
)

// tiny shrinks a workload to a model that steps in about a millisecond, so
// the tests can drive every workload, method and code path of the benchmark
// in seconds. Methods, learning rates and the kind of link stay the
// workload's; per-hop latency shrinks with the model.
func tiny(w workload) workload {
	w.link.latency /= 10
	w.bufferBytes = 4 * 64 * 64
	w.target = 2.2 // a few steps below ln(10), the loss of a uniform guess
	if w.name == "tf_latency" {
		w.rows, w.hidden = w.batch*8, 16
		w.build = func(rng *rand.Rand) *nn.Model { return models.MiniTransformer(rng, 64, 8, 16, 10) }
		w.dataset = func(seed int64) *data.Dataset { return data.SynthSequences(seed, 512, 10, 64, 8, 0.5) }
		return w
	}
	w.hidden = 64
	w.build = func(rng *rand.Rand) *nn.Model { return models.MLP(rng, 64, 64, 64, 64, 10) }
	w.dataset = func(seed int64) *data.Dataset { return mixture(seed, 512, 64, 10) }
	return w
}

var tinyPlan = plan{setups: 2, warm: 2, block: 5, minRounds: 2, maxSteps: 60}

func TestMain(m *testing.M) {
	runtime.GOMAXPROCS(2)
	tensor.SetParallelism(1)
	os.Exit(m.Run())
}

func metricNames(specs []metricSpec) []string {
	var names []string
	for _, s := range specs {
		names = append(names, s.Name)
	}
	sort.Strings(names)
	return names
}

// checkResult asserts a pass emitted exactly the metrics BENCHMARK.json
// names, each once (a map cannot hold twice) and with the unit it declares,
// that no step failed and every output check passed.
func checkResult(t *testing.T, res *result, want []metricSpec) {
	t.Helper()
	for _, n := range res.notes {
		t.Log(n)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	var got []string
	for name := range res.Metrics {
		got = append(got, name)
	}
	sort.Strings(got)
	if names := metricNames(want); !reflect.DeepEqual(got, names) {
		t.Errorf("metrics emitted:\n%v\nBENCHMARK.json names:\n%v", got, names)
	}
	for _, s := range want {
		if m, ok := res.Metrics[s.Name]; ok && m.Unit != s.Unit {
			t.Errorf("%s has unit %q, BENCHMARK.json says %q", s.Name, m.Unit, s.Unit)
		}
	}
}

// TestSmoke is the benchmark's own CI: every workload, untraced and traced,
// on the tiny configuration.
func TestSmoke(t *testing.T) {
	spec, err := readSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("BENCHMARK.json workload %d is %q, the benchmark's is %q", i, spec.Workloads[i].Name, w.name)
		}
		t.Run(w.name, func(t *testing.T) {
			res, err := runEndToEnd(tiny(w), 1, 0, tinyPlan)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, spec.EndToEnd)
			for name, m := range res.Metrics {
				if !(m.Value > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
				}
			}
		})
		t.Run(w.name+"/traced", func(t *testing.T) {
			res, rec, err := runTraced(tiny(w), 1, 0, tinyPlan, "..")
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, spec.PerLayer)
			if rec == nil {
				t.Fatal("no recorder returned")
			}
			if err := rec.spanTree(); err != nil {
				t.Error(err)
			}
			// Every compressing method and both directions of the transport
			// left spans (S-SGD ships raw gradients: the trainer builds no
			// compressor for it, so it has none to wrap).
			seen := map[string]bool{}
			for _, s := range rec.spans {
				seen[s.name] = true
			}
			for _, name := range []string{"train.Step", "comm.Send", "comm.Recv",
				"compress.sign.Encode", "compress.sign.Decode",
				"compress.topk.Encode", "compress.topk.Decode", "compress.power.CompressStep",
				"compress.acp.Compress", "compress.acp.Finalize"} {
				if !seen[name] {
					t.Errorf("no %s span recorded", name)
				}
			}
			dur, self := rec.selfTimes(0)
			if len(dur) != len(methods)*tinyPlan.block*tinyPlan.minRounds {
				t.Errorf("%d root spans, want one per traced step", len(dur))
			}
			for i := range dur {
				if self[i] < 0 || self[i] > dur[i] {
					t.Errorf("step %d: self time %v outside [0, %v]", i, self[i], dur[i])
				}
			}
			path := t.TempDir() + "/trace.json"
			if err := rec.writeChrome(path); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(v, n=4) for the same inputs.
	for _, c := range []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{5, 1, 9, 3, 7, 2, 8, 4}, [3]float64{2.25, 4.5, 7.75}},
		{[]float64{3, 1}, [3]float64{0.5, 2.0, 3.5}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
	} {
		q1, q2, q3 := quartiles(c.v)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestStepsToTarget(t *testing.T) {
	// EMA(0.1) of 3,1,1,1...: 3, 2.8, 2.62, 2.458, 2.3122: crosses 2.5
	// between the third and fourth loss.
	losses := []float64{3, 1, 1, 1, 1}
	got := stepsToTarget(losses, 2.5)
	want := 3 + (2.62-2.5)/(2.62-2.458)
	if d := got - want; d > 1e-9 || d < -1e-9 {
		t.Errorf("stepsToTarget = %v, want %v", got, want)
	}
	if got := stepsToTarget(losses, 0.5); got != 0 {
		t.Errorf("unreached target gives %v, want 0", got)
	}
	if got := stepsToTarget(losses, 5); got != 1 {
		t.Errorf("target met by the first loss gives %v, want 1", got)
	}
}
