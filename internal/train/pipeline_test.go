package train

import (
	"errors"
	"fmt"
	"testing"

	"acpsgd/internal/comm"
	"acpsgd/internal/compress"
	"acpsgd/internal/data"
)

// pipelineSpecFor maps a registered method name to a spec that is
// meaningful on the small test model (sparsifiers get a raised ratio,
// low-rank methods a small rank).
func pipelineSpecFor(name string) string {
	switch name {
	case "topk", "dgc":
		return name + ":ratio=0.05"
	case "power", "acp":
		return name + ":rank=2"
	default:
		return name
	}
}

// assertClustersBitIdentical steps both clusters n times and requires
// identical per-step losses and bitwise-identical final weights on every
// rank.
func assertClustersBitIdentical(t *testing.T, a, b *Cluster, steps int, label string) {
	t.Helper()
	lossesA := stepLosses(t, a, steps)
	lossesB := stepLosses(t, b, steps)
	for i := range lossesA {
		if lossesA[i] != lossesB[i] {
			t.Fatalf("%s: step %d loss diverged: %.17g vs %.17g", label, i, lossesA[i], lossesB[i])
		}
	}
	for r := 0; r < a.Size(); r++ {
		pa, pb := a.Model(r).Params(), b.Model(r).Params()
		for i := range pa {
			for j, v := range pa[i].W.Data {
				if v != pb[i].W.Data[j] {
					t.Fatalf("%s: rank %d param %s[%d] differs bit-wise: %g vs %g",
						label, r, pa[i].Name, j, v, pb[i].W.Data[j])
				}
			}
		}
	}
}

// TestPipelineChunksBitIdentity: for EVERY registered compression method,
// training with PipelineChunks=m must produce bit-identical models to the
// unpipelined PipelineChunks=0 replay baseline, step by step — the
// pipelining analogue of the overlap on/off guarantee. The small fusion
// budget makes several buffers per step, so chunk pipelines from different
// buffers interleave on the launch queue.
func TestPipelineChunksBitIdentity(t *testing.T) {
	const steps = 10
	trainSet := data.GaussianMixture(1001, 512, 16, 4, 1.0)
	build := buildMLP(16, 32, 4)
	for _, name := range compress.Names() {
		spec := pipelineSpecFor(name)
		t.Run(name, func(t *testing.T) {
			cfg := smokeConfig(spec, OverlapOn)
			cfg.PipelineChunks = 3
			cfg.BufferBytes = 2 * 1024
			baseCfg := smokeConfig(spec, OverlapOn)
			baseCfg.BufferBytes = 2 * 1024
			piped, err := NewCluster(cfg, build, trainSet)
			if err != nil {
				t.Fatal(err)
			}
			defer piped.Close()
			unpiped, err := NewCluster(baseCfg, build, trainSet)
			if err != nil {
				t.Fatal(err)
			}
			defer unpiped.Close()
			assertClustersBitIdentical(t, piped, unpiped, steps, name+"/chunks=3-vs-0")
			if err := piped.CheckSync(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPipelineChunksBitIdentityModes: chunk pipelining must stay
// bit-identical across the overlap knob and over real TCP sockets, and at a
// chunk count far above the per-buffer element count (empty chunks on the
// wire).
func TestPipelineChunksBitIdentityModes(t *testing.T) {
	const steps = 6
	trainSet := data.GaussianMixture(77, 256, 16, 4, 1.0)
	build := buildMLP(16, 32, 4)
	cases := []struct {
		name    string
		spec    string
		chunks  int
		overlap Overlap
		tcp     bool
	}{
		{"sign/tcp", "sign", 4, OverlapOn, true},
		{"ssgd/tcp", "ssgd", 4, OverlapOn, true},
		{"topk/overlap-off", "topk:ratio=0.05", 4, OverlapOff, false},
		{"sign/huge-m", "sign", 64, OverlapOn, false}, // 64-aligned bounds: most chunks empty
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mk := func(chunks int) *Cluster {
				cfg := smokeConfig(tc.spec, tc.overlap)
				cfg.PipelineChunks = chunks
				cfg.BufferBytes = 2 * 1024
				cfg.UseTCP = tc.tcp
				c, err := NewCluster(cfg, build, trainSet)
				if err != nil {
					t.Fatal(err)
				}
				return c
			}
			piped := mk(tc.chunks)
			defer piped.Close()
			unpiped := mk(0)
			defer unpiped.Close()
			assertClustersBitIdentical(t, piped, unpiped, steps, tc.name)
		})
	}
}

// TestPipelineFaultPropagation: a transport failing mid-chunk-pipeline must
// surface its injected error through Cluster.Step with the whole group torn
// down — no rank left deadlocked on a chunk that will never arrive — on both
// transports, for an additive method (pipelined ring) and a gather method
// (per-chunk collectives). Runs under -race in CI.
func TestPipelineFaultPropagation(t *testing.T) {
	bases := []struct {
		name string
		make func(int) ([]comm.Transport, error)
	}{
		{"inproc", func(p int) ([]comm.Transport, error) { return comm.NewInprocGroup(p, 0) }},
		{"tcp", comm.NewTCPGroup},
	}
	trainSet := data.GaussianMixture(1001, 256, 16, 4, 1.0)
	build := buildMLP(16, 32, 4)
	for _, base := range bases {
		for _, spec := range []string{"ssgd", "sign"} {
			for _, budget := range []int{0, 5, 23} {
				name := fmt.Sprintf("%s/%s/budget=%d", base.name, spec, budget)
				t.Run(name, func(t *testing.T) {
					cfg := smokeConfig(spec, OverlapOn)
					cfg.PipelineChunks = 4
					cfg.BufferBytes = 64 // several buckets, many chunks per step
					cfg.NewTransports = faultyTransports(base.make, 1, budget)
					c, err := NewCluster(cfg, build, trainSet)
					if err != nil {
						t.Fatal(err)
					}
					defer c.Close()
					c.SetLR(0.05)
					var stepErr error
					for i := 0; i < 50 && stepErr == nil; i++ {
						_, stepErr = c.Step()
					}
					if stepErr == nil {
						t.Fatal("injected fault never surfaced")
					}
					if !errors.Is(stepErr, comm.ErrInjected) {
						t.Fatalf("expected the injected fault as root cause, got: %v", stepErr)
					}
					if _, err := c.Step(); err == nil {
						t.Fatal("step after abort should fail")
					}
				})
			}
		}
	}
}
