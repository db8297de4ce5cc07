// Package bench defines the named micro-benchmark suite shared by the
// `go test -bench` harness (bench_test.go's BenchmarkSuite runs every case
// as a sub-benchmark) and by `acpbench -baseline`, which runs the same cases
// through testing.Benchmark and records ns/op, B/op and allocs/op into a
// BENCH_<date>.json perf baseline. Keeping one definition in a plain
// (non-test) package is what lets the baseline recorder and the regression
// diff agree on stable case names.
//
// The suite holds what the end-to-end benchmark module (benchmark/) does not
// measure: tensor kernels, compressor encode/decode, the wire codec, the
// collectives, the pipelined training step and the fleet scenario engine.
package bench

import (
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"acpsgd/internal/comm"
	"acpsgd/internal/compress"
	"acpsgd/internal/data"
	"acpsgd/internal/models"
	"acpsgd/internal/nn"
	"acpsgd/internal/sim"
	"acpsgd/internal/tensor"
	"acpsgd/internal/train"
)

// Case is one named micro-benchmark. Names are stable identifiers: they key
// the BENCH_*.json baselines, so renaming a case breaks regression diffs.
type Case struct {
	Name string
	F    func(b *testing.B)
}

// Suite returns the full micro-benchmark suite in a stable order.
func Suite() []Case {
	cases := []Case{
		{"MatMul256", benchMatMul256},
		{"MatMulTA256x64", benchMatMulTA256x64},
		{"MatMulTB256", benchMatMulTB256},
		{"Orthogonalize512x32", benchOrthogonalize512x32},
		{"RingAllReduce4x64k", allReduceCase(4, 64*1024)},
		{"RingAllReduce8x64k", allReduceCase(8, 64*1024)},
		{"RingAllReduce4x1M", allReduceCase(4, 1024*1024)},
		{"RingAllReduceAsync4x1M", benchAsyncAllReduce4x1M},
		{"TCPFrameCRC4x1M", benchTCPFrameCRC4x1M},
		{"PipelinedAllReduce4x1M", benchPipelinedAllReduce4x1M},
		{"AllGather4x64KB", benchAllGather4x64KB},
		{"SignEncode1M", benchSignEncode1M},
		{"SignDecode1M", benchSignDecode1M},
		{"SignDecode4x1M", gatherDecodeCase(1<<20, 4, func(r int) compress.GatherCompressor {
			return compress.NewSign(1<<20, false)
		})},
		{"TopKExact1M", benchTopKExact1M},
		{"TopKSampled1M", benchTopKSampled1M},
		{"TopKDecode4x1M", gatherDecodeCase(1<<20, 4, func(r int) compress.GatherCompressor {
			return compress.NewTopK(1<<20, 1<<10, compress.SelectExact, false, int64(r))
		})},
		{"DGCEncode1M", gatherEncodeCase(1<<20, func() compress.GatherCompressor {
			return compress.NewDGC(1<<20, 1<<10, 0, true, 1)
		})},
		{"DGCDecode4x1M", gatherDecodeCase(1<<20, 4, func(r int) compress.GatherCompressor {
			return compress.NewDGC(1<<20, 1<<10, 0, true, int64(r))
		})},
		{"PowerCompress512x512r4", benchPowerCompress},
		{"ACPCompress512x512r4", benchACPCompress},
		{"FleetEngine1000", benchFleetEngine1000},
	}
	for _, useEF := range []bool{true, false} {
		cases = append(cases, Case{
			Name: "AblationEF/" + efName(useEF),
			F:    efCase(useEF),
		})
	}
	for _, chunks := range pipelineChunkCounts {
		cases = append(cases, Case{
			Name: "PipelinedStep/chunks=" + strconv.Itoa(chunks),
			F:    pipelinedStepCase(chunks),
		})
	}
	return cases
}

// pipelineChunkCounts are the chunk counts the end-to-end pipelined-step
// bench sweeps: the unpipelined replay baseline and two pipelined depths.
var pipelineChunkCounts = []int{0, 4, 16}

// pipelinedStepCase measures one full synchronized training step of a
// 2-worker Sign-SGD cluster on a bandwidth-injected in-process transport
// (16MB/s per link — size-proportional wire delay that costs no CPU, the beta
// term of the alpha-beta model). Sign-SGD is the subject because chunking
// pays on it: its whole-buffer encode and decode sweeps are long enough to
// hide wire time behind, where Top-k and DGC at ratio 0.01 ship too little
// for chunking to gain. The default 25MB fusion budget fuses the whole model
// into ONE buffer, so the unpipelined step serializes encode → wire → decode
// back to back at the end of backward — exactly the span tensor fusion
// creates and chunk pipelining reclaims (§III-B): with PipelineChunks>0
// chunk c rides the wire while chunk c+1 is encoding and chunk c-1 is
// decoding. Tensor kernels are pinned serial (one compute stream per "node")
// and GOMAXPROCS is raised above the worker count: Sign's encode and decode
// sweeps are not cooperative yield points, so the communication goroutines
// need a spare P to forward chunk c while chunk c+1 encodes.
func pipelinedStepCase(chunks int) func(b *testing.B) {
	return func(b *testing.B) {
		const (
			workers  = 2
			features = 64
			hidden   = 256
			classes  = 10
		)
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2*workers, runtime.GOMAXPROCS(0))))
		defer tensor.SetParallelism(tensor.SetParallelism(1))
		trainSet := data.GaussianMixture(31, 512, features, classes, 1.0)
		cfg := train.Config{
			Spec:           compress.MustSpec("sign"),
			Workers:        workers,
			BatchPerWorker: 4,
			Epochs:         1,
			Momentum:       0.9,
			// The benchmark's Sign-SGD rate.
			Schedule:       train.Schedule{BaseLR: 0.001},
			PipelineChunks: chunks,
			Seed:           7,
			NewTransports: func(p int) ([]comm.Transport, error) {
				ts, err := comm.NewInprocGroup(p, 0)
				if err != nil {
					return nil, err
				}
				pacer := comm.NewBandwidthPacer(16e6)
				for i := range ts {
					ts[i] = pacer.Wrap(ts[i])
				}
				return ts, nil
			},
		}
		build := func(rng *rand.Rand) *nn.Model {
			return models.MLP(rng, features,
				hidden, hidden, hidden, hidden, hidden,
				hidden, hidden, hidden, hidden, hidden, classes)
		}
		cluster, err := train.NewCluster(cfg, build, trainSet)
		if err != nil {
			b.Fatal(err)
		}
		defer cluster.Close()
		// Cluster.Step trains at learning rate 0 until told otherwise.
		cluster.SetLR(cfg.Schedule.BaseLR)
		if _, err := cluster.Step(); err != nil { // warm pools and compressor state
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cluster.Step(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchPipelinedAllReduce4x1M is RingAllReduce4x1M at 8 segments instead of
// one: on a memory-speed transport it measures what splitting the ring into
// windowed segments costs over the one-segment schedule, which the
// committed baseline keeps honest.
func benchPipelinedAllReduce4x1M(b *testing.B) {
	const workers, elems, segments = 4, 1024 * 1024, 8
	transports, err := comm.NewInprocGroup(workers, 0)
	if err != nil {
		b.Fatal(err)
	}
	comms := make([]*comm.Communicator, workers)
	bufs := make([][]float64, workers)
	for r := range comms {
		comms[r] = comm.NewCommunicator(transports[r])
		bufs[r] = make([]float64, elems)
	}
	abort := func(r int) { transports[r].Close() }
	if err := runRanks(workers, abort, func(r int) error {
		return comms[r].AllReduceSumPipelined(bufs[r], segments)
	}); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(8 * elems))
	b.ResetTimer()
	var wg sync.WaitGroup
	for r := 0; r < workers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < b.N; i++ {
				if err := comms[r].AllReduceSumPipelined(bufs[r], segments); err != nil {
					b.Error(err)
					transports[r].Close()
					return
				}
			}
		}(r)
	}
	wg.Wait()
}

// benchTCPFrameCRC4x1M is RingAllReduce4x1M over real loopback TCP, where
// every frame now carries a CRC32C trailer computed on send and verified on
// receive. Against the in-process RingAllReduce4x1M case it prices the whole
// wire-integrity path — framing, checksum generation, and verification — and
// the committed baseline keeps that overhead from silently growing.
func benchTCPFrameCRC4x1M(b *testing.B) {
	const workers, elems = 4, 1024 * 1024
	transports, err := comm.NewTCPGroup(workers)
	if err != nil {
		b.Fatal(err)
	}
	comms := make([]*comm.Communicator, workers)
	bufs := make([][]float64, workers)
	for r := range comms {
		comms[r] = comm.NewCommunicator(transports[r])
		bufs[r] = make([]float64, elems)
	}
	defer transports[0].Close()
	abort := func(r int) { transports[r].Close() }
	// Warm the connections and buffer pools before timing.
	if err := runRanks(workers, abort, func(r int) error { return comms[r].AllReduceSum(bufs[r]) }); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(8 * elems))
	b.ResetTimer()
	var wg sync.WaitGroup
	for r := 0; r < workers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < b.N; i++ {
				if err := comms[r].AllReduceSum(bufs[r]); err != nil {
					b.Error(err)
					transports[r].Close()
					return
				}
			}
		}(r)
	}
	wg.Wait()
}

// benchAsyncAllReduce4x1M is RingAllReduce4x1M through the handle-based
// async layer: each rank submits on its AsyncCommunicator and waits the
// Pending, measuring the launch-queue overhead over the raw collective.
func benchAsyncAllReduce4x1M(b *testing.B) {
	const workers, elems = 4, 1024 * 1024
	transports, err := comm.NewInprocGroup(workers, 0)
	if err != nil {
		b.Fatal(err)
	}
	asyncs := make([]*comm.AsyncCommunicator, workers)
	bufs := make([][]float64, workers)
	for r := range asyncs {
		asyncs[r] = comm.NewAsync(comm.NewCommunicator(transports[r]))
		bufs[r] = make([]float64, elems)
	}
	defer func() {
		transports[0].Close()
		for _, a := range asyncs {
			a.Close()
		}
	}()
	abort := func(r int) { transports[r].Close() }
	if err := runRanks(workers, abort, func(r int) error {
		return asyncs[r].AllReduceSumAsync(bufs[r], 1).Wait()
	}); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(8 * elems))
	b.ResetTimer()
	var wg sync.WaitGroup
	for r := 0; r < workers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < b.N; i++ {
				if err := asyncs[r].AllReduceSumAsync(bufs[r], 1).Wait(); err != nil {
					b.Error(err)
					transports[r].Close()
					return
				}
			}
		}(r)
	}
	wg.Wait()
}

// efName names the error-feedback ablation sub-benchmarks.
func efName(useEF bool) string {
	if useEF {
		return "ef"
	}
	return "no-ef"
}

// efCase measures ACP-SGD compression throughput with or without error
// feedback on the real compressor.
func efCase(useEF bool) func(b *testing.B) {
	return func(b *testing.B) {
		const n, m, r = 256, 256, 4
		a := compress.NewACP(n, m, r, useEF, true, 1)
		grad := randGrad(n * m)
		b.SetBytes(n * m * 8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			payload := a.Compress(i, grad)
			a.Finalize(i, payload, 1, grad)
		}
	}
}

// randGrad returns n i.i.d. standard-normal values from a fixed seed — the
// shared synthetic-gradient generator for every suite case.
func randGrad(n int) []float64 { return randGradSeeded(n, 7) }

// randGradSeeded is randGrad with an explicit seed: multi-peer decode cases
// need per-rank gradients, or the sign majority vote degenerates to the
// all-agree fast path and the bench never measures the general vote tally.
func randGradSeeded(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	g := make([]float64, n)
	for i := range g {
		g[i] = rng.NormFloat64()
	}
	return g
}

func benchMatMul256(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	x := tensor.New(256, 256)
	y := tensor.New(256, 256)
	x.Randomize(rng, 1)
	y.Randomize(rng, 1)
	out := tensor.New(256, 256)
	b.SetBytes(256 * 256 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMul(out, x, y)
	}
}

func benchMatMulTA256x64(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	x := tensor.New(256, 256)
	y := tensor.New(256, 64)
	x.Randomize(rng, 1)
	y.Randomize(rng, 1)
	out := tensor.New(256, 64)
	b.SetBytes(256 * 256 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMulTA(out, x, y)
	}
}

func benchMatMulTB256(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	x := tensor.New(256, 256)
	y := tensor.New(256, 256)
	x.Randomize(rng, 1)
	y.Randomize(rng, 1)
	out := tensor.New(256, 256)
	b.SetBytes(256 * 256 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMulTB(out, x, y)
	}
}

func benchOrthogonalize512x32(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	m := tensor.New(512, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m.Randomize(rng, 1)
		b.StartTimer()
		tensor.Orthogonalize(m)
	}
}

func allReduceCase(workers, elems int) func(b *testing.B) {
	return func(b *testing.B) {
		transports, err := comm.NewInprocGroup(workers, 0)
		if err != nil {
			b.Fatal(err)
		}
		comms := make([]*comm.Communicator, workers)
		bufs := make([][]float64, workers)
		for r := range comms {
			comms[r] = comm.NewCommunicator(transports[r])
			bufs[r] = make([]float64, elems)
		}
		// Warm the buffer pools so the timed loop measures the steady state.
		abort := func(r int) { transports[r].Close() }
		if err := runRanks(workers, abort, func(r int) error { return comms[r].AllReduceSum(bufs[r]) }); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(8 * elems))
		b.ResetTimer()
		// One long-lived goroutine per rank; the ring schedule itself keeps
		// the ranks in lockstep, so allocs/op reflects the collective alone
		// rather than per-iteration goroutine spawns.
		var wg sync.WaitGroup
		for r := 0; r < workers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				for i := 0; i < b.N; i++ {
					if err := comms[r].AllReduceSum(bufs[r]); err != nil {
						b.Error(err)
						// Closing any endpoint closes the whole group, so
						// peer ranks blocked in Recv fail out instead of
						// deadlocking the benchmark.
						transports[r].Close()
						return
					}
				}
			}(r)
		}
		wg.Wait()
	}
}

// runRanks runs fn once per rank concurrently and returns the first error.
// When a rank fails, its transport group is torn down via abort so peer
// ranks blocked in Recv fail out instead of deadlocking.
func runRanks(workers int, abort func(r int), fn func(r int) error) error {
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for r := 0; r < workers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			if errs[r] = fn(r); errs[r] != nil && abort != nil {
				abort(r)
			}
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func benchAllGather4x64KB(b *testing.B) {
	const workers = 4
	transports, err := comm.NewInprocGroup(workers, 0)
	if err != nil {
		b.Fatal(err)
	}
	comms := make([]*comm.Communicator, workers)
	blobs := make([][]byte, workers)
	for r := range comms {
		comms[r] = comm.NewCommunicator(transports[r])
		blobs[r] = make([]byte, 64*1024)
	}
	b.SetBytes(64 * 1024)
	abort := func(r int) { transports[r].Close() }
	// Warm the region pools so the timed loop measures the steady state the
	// trainer sees: decode the gathered region, then Release it so the next
	// step's gather re-leases the same memory.
	gather := func(r int) error {
		g, err := comms[r].AllGather(blobs[r])
		if err != nil {
			return err
		}
		g.Release()
		return nil
	}
	if err := runRanks(workers, abort, gather); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := runRanks(workers, abort, gather); err != nil {
			b.Fatal(err)
		}
	}
}

// gatherEncodeCase measures one gather compressor's encode throughput at n
// elements (steady state: the pooled payload path should report 0
// allocs/op for the deterministic methods).
func gatherEncodeCase(n int, mk func() compress.GatherCompressor) func(b *testing.B) {
	return func(b *testing.B) {
		comp := mk()
		grad := randGrad(n)
		comp.Encode(0, grad) // warm the pooled payload buffer
		b.SetBytes(int64(n * 8))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			comp.Encode(i, grad)
		}
	}
}

// gatherDecodeCase measures the fused multi-peer decode: `workers` encoded
// payloads at n elements merged into the mean gradient in one pass.
func gatherDecodeCase(n, workers int, mk func(r int) compress.GatherCompressor) func(b *testing.B) {
	return func(b *testing.B) {
		blobs := make([][]byte, workers)
		for r := range blobs {
			// Distinct per-rank gradients: peers must disagree, so the sign
			// vote tally (not just its all-agree shortcut) is what's timed.
			blobs[r] = append([]byte(nil), mk(r).Encode(0, randGradSeeded(n, int64(7+r)))...)
		}
		dec := mk(workers)
		out := make([]float64, n)
		if err := dec.Decode(0, blobs, out); err != nil { // warm decode scratch
			b.Fatal(err)
		}
		b.SetBytes(int64(n * 8))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := dec.Decode(i, blobs, out); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func benchSignEncode1M(b *testing.B) {
	const n = 1 << 20
	s := compress.NewSign(n, true)
	grad := randGrad(n)
	b.SetBytes(n * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Encode(i, grad)
	}
}

func benchSignDecode1M(b *testing.B) {
	const n = 1 << 20
	const workers = 8
	blobs := make([][]byte, workers)
	for r := range blobs {
		s := compress.NewSign(n, false)
		//acpvet:ignore each compressor encodes exactly once, so its payload is never re-leased
		blobs[r] = s.Encode(0, randGradSeeded(n, int64(7+r)))
	}
	dec := compress.NewSign(n, false)
	out := make([]float64, n)
	b.SetBytes(n * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dec.Decode(i, blobs, out); err != nil {
			b.Fatal(err)
		}
	}
}

func benchTopKExact1M(b *testing.B) {
	const n = 1 << 20
	tk := compress.NewTopK(n, n/1000, compress.SelectExact, true, 1)
	grad := randGrad(n)
	b.SetBytes(n * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tk.Encode(i, grad)
	}
}

func benchTopKSampled1M(b *testing.B) {
	const n = 1 << 20
	tk := compress.NewTopK(n, n/1000, compress.SelectSampled, true, 2)
	grad := randGrad(n)
	b.SetBytes(n * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tk.Encode(i, grad)
	}
}

// localCollectives satisfies compress.Collectives for single-worker
// benchmarking (no peers: all-reduce is identity).
type localCollectives struct{}

func (localCollectives) AllReduceSum([]float64) error { return nil }
func (localCollectives) Size() int                    { return 1 }

func benchPowerCompress(b *testing.B) {
	const n, m, r = 512, 512, 4
	ps := compress.NewPowerSGD(n, m, r, true, 1)
	grad := randGrad(n * m)
	b.SetBytes(n * m * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ps.CompressStep(i, grad, localCollectives{}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchACPCompress(b *testing.B) {
	const n, m, r = 512, 512, 4
	a := compress.NewACP(n, m, r, true, true, 1)
	grad := randGrad(n * m)
	b.SetBytes(n * m * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		payload := a.Compress(i, grad)
		a.Finalize(i, payload, 1, grad)
	}
}

// benchFleetEngine1000 runs a full 1000-node chaos scenario per iteration —
// the fleet generator, the seeded fault sampler, and 300 priced steps with
// enough membership churn to defeat a single memo hit. It is the perf gate
// for the scenario engine: a regression in the engine pool, the bottleneck
// memoization, or the sampler's draw loop shows up here first.
func benchFleetEngine1000(b *testing.B) {
	sc := &sim.Scenario{
		Name:   "bench-fleet-1000",
		Seed:   42,
		Steps:  300,
		Model:  "resnet50",
		Method: "acp",
		Fleet: sim.FleetSpec{
			Nodes: 1000,
			Templates: []sim.NodeTemplate{
				{Name: "fast", Weight: 3, ComputeScale: 0.5, BandwidthGbps: 25},
				{Name: "mid", Weight: 6},
				{Name: "slow", Weight: 1, Network: "1gbe"},
			},
			Zones: map[string]float64{"a": 1, "b": 1, "c": 1, "d": 1},
		},
		Faults: sim.FaultSpec{
			CrashPer1kSteps:     0.05,
			TransientPer1kSteps: 0.1,
			CascadeFactor:       2,
		},
		Recovery: sim.RecoverySpec{MinNodes: 100},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := sim.RunScenario(sc)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Steps == 0 {
			b.Fatal("scenario priced no steps")
		}
	}
}
