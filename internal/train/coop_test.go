package train

import (
	"math/rand"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"acpsgd/internal/comm"
	"acpsgd/internal/compress"
	"acpsgd/internal/coop"
	"acpsgd/internal/data"
	"acpsgd/internal/models"
	"acpsgd/internal/nn"
	"acpsgd/internal/tensor"
)

// recvCounter counts the Recvs that have returned on one rank's transport.
// It sits outermost, so a Recv counts once the link's modelled latency has
// been served.
type recvCounter struct {
	comm.Transport
	n *atomic.Int64
}

func (c recvCounter) Recv(from int) ([]byte, error) {
	data, err := c.Transport.Recv(from)
	c.n.Add(1)
	return data, err
}

// TestOverlapProgressesWithoutSpareP is the wait-free back-propagation
// contract at GOMAXPROCS = ranks with serial kernels: both Ps are saturated
// by the ranks' compute streams, and the collectives launched at seal time
// must still make progress under backward, through the kernels' cooperative
// yield points. On a 1 ms/hop link with one bucket per layer of a deep MLP,
// at least half of rank 0's Recvs of the step have returned by the time the
// step's last bucket is sealed. Without the yield points the communication
// goroutines are only serviced at sysmon's 10 ms preemption or when
// backward ends, and no more than the first collective gets that far.
func TestOverlapProgressesWithoutSpareP(t *testing.T) {
	if testing.Short() {
		t.Skip("times real steps on a latency-injected link")
	}
	const (
		workers  = 2
		features = 64
		hidden   = 384
		classes  = 10
		depth    = 12 // hidden layers: the last few buckets always seal together, the rest must overlap
		steps    = 3
	)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	defer tensor.SetParallelism(tensor.SetParallelism(1))
	trainSet := data.GaussianMixture(31, 1024, features, classes, 1.0)
	build := func(rng *rand.Rand) *nn.Model {
		dims := []int{features}
		for i := 0; i < depth; i++ {
			dims = append(dims, hidden)
		}
		return models.MLP(rng, append(dims, classes)...)
	}
	for _, spec := range []string{"ssgd", "acp:rank=4"} {
		t.Run(spec, func(t *testing.T) {
			var recvs atomic.Int64
			cfg := Config{
				Spec:           compress.MustSpec(spec),
				Workers:        workers,
				BatchPerWorker: 64,
				Epochs:         1,
				Momentum:       0.9,
				// A weight matrix, its bias and the next layer's bias: one
				// bucket, so one collective, per layer.
				BufferBytes: wireBytesPerElem * (hidden*hidden + 2*hidden),
				Overlap:     OverlapOn,
				Seed:        7,
				NewTransports: func(p int) ([]comm.Transport, error) {
					ts, err := comm.NewInprocGroup(p, 0)
					if err != nil {
						return nil, err
					}
					for i := range ts {
						ts[i] = comm.WithLatency(ts[i], time.Millisecond)
					}
					ts[0] = recvCounter{Transport: ts[0], n: &recvs}
					return ts, nil
				},
			}
			c, err := NewCluster(cfg, build, trainSet)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			c.SetLR(0.01)
			stepLosses(t, c, 1) // warm pools and lazy compressor state

			// Note how many Recvs had returned at every seal of rank 0.
			var atSeal []int64
			w := c.group().workers[0]
			for _, g := range []*fusionGroup{w.rawGroup, w.compGroup} {
				seal := g.onSeal
				g.onSeal = func(buf *additiveBuffer) {
					atSeal = append(atSeal, recvs.Load())
					seal(buf)
				}
			}
			var share []float64 // per step: Recvs returned at the last seal / Recvs of the step
			for i := 0; i < steps; i++ {
				recvs.Store(0)
				atSeal = atSeal[:0]
				stepLosses(t, c, 1)
				total := recvs.Load()
				if len(atSeal) < 6 || total < 2*int64(len(atSeal)) {
					t.Fatalf("step sealed %d buckets and completed %d Recvs: want a bucket per layer, two Recvs each", len(atSeal), total)
				}
				share = append(share, float64(atSeal[len(atSeal)-1])/float64(total))
			}
			sort.Float64s(share)
			t.Logf("share of the step's Recvs returned before the last seal, per step: %.2f", share)
			if median := share[len(share)/2]; median < 0.5 {
				t.Errorf("median share is %.2f, want at least 0.5", median)
			}
		})
	}
}

// wantGaugeZero fails the test when asynchronous collectives are still
// accounted in flight: a leaked count would make every matmul kernel in the
// process yield forever.
func wantGaugeZero(t *testing.T, when string) {
	t.Helper()
	if n := coop.InFlight(); n != 0 {
		t.Fatalf("%s: in-flight gauge is %d, want 0", when, n)
	}
}

// TestGaugeZeroBetweenSteps: the in-flight gauge the trainer's collectives
// raise is back to zero whenever no step is running — after every successful
// step of every communication pattern, after a step that fails in the middle
// of a collective, after an elastic re-form, and after Close.
func TestGaugeZeroBetweenSteps(t *testing.T) {
	trainSet := data.GaussianMixture(1001, 256, 16, 4, 1.0)
	build := buildMLP(16, 32, 4)
	wantGaugeZero(t, "before the test")

	for _, spec := range []string{"ssgd", "acp:rank=2", "sign", "power:rank=2"} {
		for _, chunks := range []int{0, 3} {
			cfg := smokeConfig(spec, OverlapOn)
			cfg.BufferBytes = 64
			cfg.PipelineChunks = chunks
			c, err := NewCluster(cfg, build, trainSet)
			if err != nil {
				t.Fatal(err)
			}
			c.SetLR(0.05)
			for i := 0; i < 3; i++ {
				stepLosses(t, c, 1)
				wantGaugeZero(t, spec+": after a successful step")
			}
			c.Close()
			wantGaugeZero(t, spec+": after Close")
		}
	}

	t.Run("failed step", func(t *testing.T) {
		for _, budget := range []int{0, 3, 17} {
			cfg := smokeConfig("ssgd", OverlapOn)
			cfg.BufferBytes = 64
			cfg.NewTransports = faultyTransports(func(p int) ([]comm.Transport, error) { return comm.NewInprocGroup(p, 0) }, 1, budget)
			c, err := NewCluster(cfg, build, trainSet)
			if err != nil {
				t.Fatal(err)
			}
			c.SetLR(0.05)
			var stepErr error
			for i := 0; i < 50 && stepErr == nil; i++ {
				_, stepErr = c.Step()
			}
			if stepErr == nil {
				t.Fatal("injected fault never surfaced")
			}
			wantGaugeZero(t, "after a step that failed mid-collective")
			c.Close()
			wantGaugeZero(t, "after Close of a dead cluster")
		}
	})

	t.Run("elastic re-form", func(t *testing.T) {
		cfg := elasticSmokeConfig("ssgd", OverlapOn)
		cfg.BufferBytes = 64
		var builds atomic.Int32
		cfg.NewTransports = func(p int) ([]comm.Transport, error) {
			ts, err := comm.NewInprocGroup(p, 0)
			if err != nil {
				return nil, err
			}
			if builds.Add(1) == 1 { // only the first epoch's link faults
				ts[1] = comm.WithFaultAfter(ts[1], 5)
			}
			return ts, nil
		}
		c, err := NewCluster(cfg, build, trainSet)
		if err != nil {
			t.Fatal(err)
		}
		c.SetLR(0.05)
		for i := 0; i < 8; i++ {
			stepLosses(t, c, 1) // the fault and its recovery happen in here
			wantGaugeZero(t, "after a step of an elastic cluster")
		}
		if builds.Load() < 2 {
			t.Fatal("the fault never triggered a re-form")
		}
		c.Close()
		wantGaugeZero(t, "after Close of a re-formed cluster")
	})
}

// TestFusionBuffersPersistAcrossSteps: bucket composition is deterministic,
// so from the second step on every fusion buffer refills the backing array
// the same bucket used the step before instead of growing a new one.
func TestFusionBuffersPersistAcrossSteps(t *testing.T) {
	trainSet := data.GaussianMixture(1001, 256, 16, 4, 1.0)
	for _, spec := range []string{"ssgd", "acp:rank=2", "sign"} {
		cfg := smokeConfig(spec, OverlapOn)
		cfg.BufferBytes = 256 // several buckets per step
		c, err := NewCluster(cfg, buildMLP(16, 32, 4), trainSet)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.SetLR(0.05)
		// backing lists the first element's address of every sealed buffer of
		// rank 0, group by group.
		backing := func() []*float64 {
			w := c.group().workers[0]
			var out []*float64
			for _, g := range []*fusionGroup{w.rawGroup, w.compGroup} {
				for _, buf := range g.sealed {
					out = append(out, &buf.data[0])
				}
			}
			for _, buf := range w.gatherGrp.sealed {
				out = append(out, &buf.packed[0])
			}
			return out
		}
		// ACP-SGD alternates P and Q payload sizes: give every bucket both
		// parities before comparing.
		stepLosses(t, c, 2)
		before := backing()
		if len(before) < 3 {
			t.Fatalf("%s: only %d buckets in a step; the test needs several", spec, len(before))
		}
		stepLosses(t, c, 2)
		after := backing()
		if len(after) != len(before) {
			t.Fatalf("%s: %d buckets, then %d: composition is not stable", spec, len(before), len(after))
		}
		for i := range before {
			if before[i] != after[i] {
				t.Errorf("%s: bucket %d moved to a new backing array", spec, i)
			}
		}
	}
}
