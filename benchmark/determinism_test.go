package main

import (
	"reflect"
	"strings"
	"testing"
)

// stepLosses builds the workload's five clusters and returns every method's
// per-step losses over a few blocks.
func stepLosses(t *testing.T, w workload, seed int64) map[string][]float64 {
	t.Helper()
	lanes, err := setUp(w, w.dataset(seed), methods, 2, func(string) clusterOpts { return clusterOpts{link: w.link} })
	if err != nil {
		t.Fatal(err)
	}
	defer closeLanes(lanes)
	out := map[string][]float64{}
	for _, l := range lanes {
		for b := 0; b < 2; b++ {
			if failed := l.timedBlock(4); failed > 0 {
				t.Fatalf("%s: %d steps failed", l.method, failed)
			}
		}
		out[l.method] = l.losses
	}
	return out
}

// TestSameSeedSameLosses: one seed gives bit-identical per-step losses run
// to run on every workload (which is why steps_to_target is an exact count
// and time_to_loss_s carries no noise beyond step_ms), and another seed
// gives other losses.
func TestSameSeedSameLosses(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			w := tiny(w)
			a, b, other := stepLosses(t, w, 3), stepLosses(t, w, 3), stepLosses(t, w, 4)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("two runs with one seed differ:\n%v\n%v", a, b)
			}
			for _, m := range methods {
				if reflect.DeepEqual(a[m], other[m]) {
					t.Errorf("%s: seeds 3 and 4 give the same losses", m)
				}
			}
		})
	}
}

// TestSeedDrawsTheDatasetOnly: the seed reaches the program as a generated
// dataset and nothing else; initial weights are the workload's own.
func TestSeedDrawsTheDatasetOnly(t *testing.T) {
	for _, w := range workloads {
		w := tiny(w)
		d1, d1again, d2 := w.dataset(1), w.dataset(1), w.dataset(2)
		if !reflect.DeepEqual(d1, d1again) {
			t.Errorf("%s: one seed gave two datasets", w.name)
		}
		if reflect.DeepEqual(d1.X.Data, d2.X.Data) {
			t.Errorf("%s: seeds 1 and 2 gave the same dataset", w.name)
		}
		c1, err := w.newCluster("ssgd", d1, clusterOpts{})
		if err != nil {
			t.Fatal(err)
		}
		c2, err := w.newCluster("ssgd", d2, clusterOpts{})
		if err != nil {
			c1.Close()
			t.Fatal(err)
		}
		p1, p2 := c1.Model(0).Params(), c2.Model(0).Params()
		for i := range p1 {
			if !reflect.DeepEqual(p1[i].W.Data, p2[i].W.Data) {
				t.Errorf("%s: initial weights of %s depend on the seed", w.name, p1[i].Name)
			}
		}
		c1.Close()
		c2.Close()
	}
}

// TestTracedCountsRepeat: the counts a later change may rest a claim on
// repeat exactly for one seed.
func TestTracedCountsRepeat(t *testing.T) {
	w := tiny(workloads[0])
	counts := func() map[string]float64 {
		res, _, err := runTraced(w, 5, 0, tinyPlan, "..")
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]float64{}
		for name, m := range res.Metrics {
			for _, prefix := range []string{"train.steps_to_target.", "comm.wire_mb_per_step.", "comm.msgs_per_step.", "compress.payload_bytes.", "compress.rel_error."} {
				if strings.HasPrefix(name, prefix) {
					out[name] = m.Value
				}
			}
		}
		return out
	}
	a, b := counts(), counts()
	if len(a) == 0 || !reflect.DeepEqual(a, b) {
		t.Errorf("traced counts differ between two runs with one seed:\n%v\n%v", a, b)
	}
}
