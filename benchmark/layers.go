package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"acpsgd/internal/comm"
	"acpsgd/internal/compress"
	"acpsgd/internal/data"
	"acpsgd/internal/models"
	"acpsgd/internal/nn"
	"acpsgd/internal/sim"
	"acpsgd/internal/tensor"
	"acpsgd/internal/train"
)

// This file prices single layers for the traced run by timing calls into
// their public functions with the workload's own shapes, data and link.
// Every number is a median over a handful of calls: per-layer metrics carry
// no bound, they say where an end-to-end change came from.

// medianMS calls fn n times and returns the median call in milliseconds.
func medianMS(n int, fn func()) float64 {
	samples := make([]float64, n)
	for i := range samples {
		t := time.Now()
		fn()
		samples[i] = millis(time.Since(t))
	}
	return median(samples)
}

// firstErr keeps the first error of calls made inside timing closures, which
// cannot return one.
type firstErr struct{ err error }

func (f *firstErr) note(err error) {
	if f.err == nil {
		f.err = err
	}
}

// heapDelta runs fn and returns the bytes and objects it allocated,
// process-wide.
func heapDelta(fn func()) (bytes, objects float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.TotalAlloc - a.TotalAlloc), float64(b.Mallocs - a.Mallocs)
}

func randMatrix(rng *rand.Rand, rows, cols int) *tensor.Matrix {
	m := tensor.New(rows, cols)
	m.Randomize(rng, 1)
	return m
}

// layerTensor times the three matmul kernels at the shape the workload's
// dense layers use them (b rows of activations through an h x h weight) and
// the orthogonalization of an h x rank factor, the low-rank methods' kernel.
func layerTensor(w workload, res *result) {
	const calls = 15
	rng := rand.New(rand.NewSource(1))
	b, h := w.rows, w.hidden
	x, dout, weight := randMatrix(rng, b, h), randMatrix(rng, b, h), randMatrix(rng, h, h)
	act, dw := tensor.New(b, h), tensor.New(h, h)
	res.set("tensor.matmul_ms", medianMS(calls, func() { tensor.MatMul(act, dout, weight) }), "ms")
	res.set("tensor.matmul_ta_ms", medianMS(calls, func() { tensor.MatMulTA(dw, dout, x) }), "ms")
	res.set("tensor.matmul_tb_ms", medianMS(calls, func() { tensor.MatMulTB(act, x, weight) }), "ms")
	src, factor := randMatrix(rng, h, lowRank), tensor.New(h, lowRank)
	res.set("tensor.orthogonalize_ms", medianMS(calls, func() {
		factor.CopyFrom(src)
		tensor.Orthogonalize(factor)
	}), "ms")
}

// replica is one worker's model with the gradient of one real batch in it.
type replica struct {
	model   *nn.Model
	batcher *data.Batcher
	loss    nn.SoftmaxCrossEntropy
}

func newReplica(w workload, ds *data.Dataset, rank int) (*replica, error) {
	shard, err := ds.Shard(rank, workers)
	if err != nil {
		return nil, err
	}
	return &replica{
		model:   w.build(rand.New(rand.NewSource(modelSeed))),
		batcher: data.NewBatcher(shard, w.batch, modelSeed+int64(rank)),
	}, nil
}

func (r *replica) forward() *tensor.Matrix {
	x, labels := r.batcher.Next()
	r.model.ZeroGrads()
	_, dlogits := r.loss.Forward(r.model.Forward(x), labels)
	return dlogits
}

// layerNNData times one replica's forward and backward pass and the batcher.
func layerNNData(w workload, ds *data.Dataset, res *result) error {
	const passes = 10
	r, err := newReplica(w, ds, 0)
	if err != nil {
		return err
	}
	r.model.Backward(r.forward(), nil) // first pass sizes the activations
	fwd, bwd := make([]float64, passes), make([]float64, passes)
	allocB, _ := heapDelta(func() {
		for i := range fwd {
			t0 := time.Now()
			d := r.forward()
			t1 := time.Now()
			r.model.Backward(d, nil)
			fwd[i], bwd[i] = millis(t1.Sub(t0)), millis(time.Since(t1))
		}
	})
	res.set("nn.forward_ms", median(fwd), "ms")
	res.set("nn.backward_ms", median(bwd), "ms")
	res.set("nn.alloc_mb_per_pass", allocB/passes/(1<<20), "MB")

	const batches = 200
	res.set("data.next_batch_us", medianMS(5, func() {
		for i := 0; i < batches; i++ {
			r.batcher.Next()
		}
	})*1000/batches, "us")
	return nil
}

// onRanks runs fn once per rank, concurrently, and returns the first error.
// A failing rank closes the group so its peers fail fast instead of waiting
// for a message that will never come.
func onRanks(ts []comm.Transport, fn func(rank int, c *comm.Communicator) error) error {
	errs := make([]error, len(ts))
	var wg sync.WaitGroup
	for r := range ts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if errs[r] = fn(r, comm.NewCommunicator(ts[r])); errs[r] != nil {
				ts[r].Close()
			}
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			return fmt.Errorf("rank %d: %w", r, err)
		}
	}
	return nil
}

// layerComm times the collectives alone on the workload's link: no model, no
// compressor, two ranks that do nothing else.
func layerComm(w workload, elems int, res *result) error {
	ts, err := w.link.transports(workers, nil)
	if err != nil {
		return err
	}
	defer func() {
		for _, t := range ts {
			t.Close()
		}
	}()
	const (
		big   = 5
		small = 40
	)
	var allreduce, pipelined, gather, tiny, allocs float64
	err = onRanks(ts, func(rank int, c *comm.Communicator) error {
		buf := make([]float64, elems)
		blob := make([]byte, elems/8) // a Sign-SGD payload: one bit per element
		few := make([]float64, 64)
		var first firstErr
		first.note(c.AllReduceSum(buf)) // warm the pools
		var a float64
		_, objects := heapDelta(func() {
			a = medianMS(big, func() { first.note(c.AllReduceSum(buf)) })
		})
		p := medianMS(big, func() { first.note(c.AllReduceSumPipelined(buf, 4)) })
		g := medianMS(big, func() {
			got, err := c.AllGather(blob)
			first.note(err)
			if err == nil {
				got.Release()
			}
		})
		s := medianMS(small, func() { first.note(c.AllReduceSum(few)) })
		if rank == 0 {
			// Both ranks allocate inside the window, so halve the count.
			allreduce, pipelined, gather, tiny, allocs = a, p, g, s, objects/big/workers
		}
		return first.err
	})
	if err != nil {
		return fmt.Errorf("%s: standalone collectives: %w", w.name, err)
	}
	res.set("comm.allreduce_ms", allreduce, "ms")
	res.set("comm.allreduce_pipelined_ms", pipelined, "ms")
	res.set("comm.allgather_ms", gather, "ms")
	res.set("comm.small_allreduce_us", tiny*1000, "us")
	res.set("comm.allocs_per_allreduce", allocs, "count")
	return nil
}

// meteredCollectives adapts a Communicator to the compressor-facing
// Collectives interface and counts the payload bytes handed to it.
type meteredCollectives struct {
	c     *comm.Communicator
	bytes int
}

func (m *meteredCollectives) AllReduceSum(buf []float64) error {
	m.bytes += 8 * len(buf)
	return m.c.AllReduceSum(buf)
}

func (m *meteredCollectives) AllGather(local []byte) (compress.Gathered, error) {
	m.bytes += len(local)
	g, err := m.c.AllGather(local)
	if err != nil {
		return nil, err
	}
	return g, nil
}

func (m *meteredCollectives) Size() int { return m.c.Size() }

// compressTimes are rank 0's per-step compressor times, one entry per step.
type compressTimes struct{ encode, decode []float64 }

// aggregateStep runs one method's compress -> collective -> decompress for
// one gradient (grads: one flat slice per parameter, overwritten with the
// decoded mean) the way the trainer does, without fusion or overlap. state
// carries the rank's compressors across steps.
func aggregateStep(method string, step, rank int, params []*nn.Param, grads [][]float64,
	state map[int]any, coll *meteredCollectives) (enc, dec time.Duration, err error) {
	fac, spec, err := compress.Resolve(compress.MustSpec(specs[method]))
	if err != nil {
		return 0, 0, err
	}
	info := fac.Info()
	stateFor := func(id, rows, cols int) (any, error) {
		if st, ok := state[id]; ok {
			return st, nil
		}
		st, err := fac.New(spec, compress.Tensor{Rows: rows, Cols: cols, ID: int64(id), WorkerRank: rank})
		state[id] = st
		return st, err
	}
	raw := func(g []float64) error {
		if err := coll.AllReduceSum(g); err != nil {
			return err
		}
		tensor.Scale(1/float64(workers), g, g)
		return nil
	}

	if info.Scope == compress.ScopeBuffer {
		// Gather methods compress the packed gradient: one buffer here.
		var flat []float64
		for _, g := range grads {
			flat = append(flat, g...)
		}
		st, err := stateFor(0, len(flat), 1)
		if err != nil {
			return 0, 0, err
		}
		comp := st.(compress.GatherCompressor)
		t0 := time.Now()
		blob := comp.Encode(step, flat)
		enc = time.Since(t0)
		got, err := coll.AllGather(blob)
		if err != nil {
			return 0, 0, err
		}
		payloads := make([][]byte, got.Ranks())
		for r := range payloads {
			payloads[r] = got.Payload(r)
		}
		t0 = time.Now()
		err = comp.Decode(step, payloads, flat)
		dec = time.Since(t0)
		got.Release()
		for _, g := range grads {
			copy(g, flat[:len(g)])
			flat = flat[len(g):]
		}
		return enc, dec, err
	}

	for i, p := range params {
		g := grads[i]
		matrix := !p.IsVector && p.W.Rows > 1 && p.W.Cols > 1
		if info.Scope == compress.ScopeNone || !matrix {
			if err := raw(g); err != nil {
				return 0, 0, err
			}
			continue
		}
		st, err := stateFor(i, p.W.Rows, p.W.Cols)
		if err != nil {
			return 0, 0, err
		}
		switch comp := st.(type) {
		case compress.BlockingCompressor:
			t0 := time.Now()
			if err := comp.CompressStep(step, g, coll); err != nil {
				return 0, 0, err
			}
			enc += time.Since(t0)
		case compress.AdditiveCompressor:
			t0 := time.Now()
			owned := comp.Compress(step, g)
			enc += time.Since(t0)
			payload := append([]float64(nil), owned...) // the compressor reuses its buffer
			if err := coll.AllReduceSum(payload); err != nil {
				return 0, 0, err
			}
			t0 = time.Now()
			comp.Finalize(step, payload, workers, g)
			dec += time.Since(t0)
		default:
			return 0, 0, fmt.Errorf("%s built %T, which fits no pattern", method, st)
		}
	}
	return enc, dec, nil
}

// layerCompress prices each method's compressor on the workload's real
// gradients: two replicas take one batch each, then every method aggregates
// those same two gradients for a few steps over an unshaped in-process pair.
//
//	payload_bytes  bytes one rank hands to collectives per step
//	rel_error      |sum of decoded means - steps*true mean| / |steps*true mean|:
//	               the share of gradient mass still withheld (in error-feedback
//	               residuals) after `steps` steps; 0 for S-SGD
func layerCompress(w workload, ds *data.Dataset, res *result) error {
	const steps = 8 // even: ACP-SGD alternates P and Q payloads
	var reps [workers]*replica
	for r := range reps {
		rep, err := newReplica(w, ds, r)
		if err != nil {
			return err
		}
		rep.model.Backward(rep.forward(), nil)
		reps[r] = rep
	}
	params := reps[0].model.Params()
	// The true mean gradient, per parameter.
	truth := make([][]float64, len(params))
	for i := range params {
		truth[i] = make([]float64, len(params[i].Grad.Data))
		for r := range reps {
			tensor.Axpy(1/float64(workers), reps[r].model.Params()[i].Grad.Data, truth[i])
		}
	}

	for _, m := range methods {
		ts, err := comm.NewInprocGroup(workers, 0)
		if err != nil {
			return err
		}
		var times compressTimes
		var payload int
		sum := make([][]float64, len(params))
		err = onRanks(ts, func(rank int, c *comm.Communicator) error {
			coll := &meteredCollectives{c: c}
			state := map[int]any{}
			own := reps[rank].model.Params()
			for step := 0; step < steps; step++ {
				grads := make([][]float64, len(own))
				for i, p := range own {
					grads[i] = append([]float64(nil), p.Grad.Data...)
				}
				enc, dec, err := aggregateStep(m, step, rank, own, grads, state, coll)
				if err != nil {
					return err
				}
				if rank != 0 {
					continue
				}
				times.encode = append(times.encode, millis(enc))
				times.decode = append(times.decode, millis(dec))
				for i, g := range grads {
					if sum[i] == nil {
						sum[i] = make([]float64, len(g))
					}
					tensor.Axpy(1, g, sum[i])
				}
			}
			if rank == 0 {
				payload = coll.bytes
			}
			return nil
		})
		for _, t := range ts {
			t.Close()
		}
		if err != nil {
			return fmt.Errorf("%s: compress %s: %w", w.name, m, err)
		}

		var errSq, normSq float64
		for i := range truth {
			for j, v := range truth[i] {
				want := steps * v
				d := sum[i][j] - want
				errSq += d * d
				normSq += want * want
			}
		}
		res.set("compress.payload_bytes."+m, float64(payload)/steps, "B")
		res.set("compress.rel_error."+m, math.Sqrt(errSq/normSq), "1")
		switch m {
		case "sign", "topk":
			res.set("compress.encode_ms."+m, lowerQuartile(times.encode), "ms")
			res.set("compress.decode_ms."+m, lowerQuartile(times.decode), "ms")
		case "power":
			res.set("compress.step_ms.power", lowerQuartile(times.encode), "ms")
		case "acp":
			res.set("compress.compress_ms.acp", lowerQuartile(times.encode), "ms")
			res.set("compress.finalize_ms.acp", lowerQuartile(times.decode), "ms")
		}
	}
	return nil
}

// layerCheckpoint times a full-model checkpoint write and restore through
// memory, so the disk does not blur what the train package costs.
func layerCheckpoint(w workload, res *result) error {
	model := w.build(rand.New(rand.NewSource(modelSeed)))
	var buf bytes.Buffer
	var first firstErr
	res.set("train.checkpoint_write_ms", medianMS(5, func() {
		buf.Reset()
		ck, err := train.Capture(model, nil, 0)
		if err == nil {
			err = ck.Write(&buf)
		}
		first.note(err)
	}), "ms")
	res.set("train.checkpoint_restore_ms", medianMS(5, func() {
		ck, err := train.ReadCheckpoint(bytes.NewReader(buf.Bytes()))
		if err == nil {
			err = ck.Apply(model, nil)
		}
		first.note(err)
	}), "ms")
	return first.err
}

// layerElastic times the elastic runtime's answer to a link fault: the one
// Step that hits comm.WithFaultAfter returns only after the group has been
// torn down, membership has settled, and a re-formed group has restored the
// last checkpoint and retried.
func layerElastic(w workload, ds *data.Dataset, res *result) error {
	builds := 0
	o := clusterOpts{
		elastic: train.ElasticConfig{Enabled: true},
		wrap: func(t comm.Transport) comm.Transport {
			// Only the first epoch's rank 1 faults; the re-formed group is clean.
			if builds++; builds == workers {
				return comm.WithFaultAfter(t, 60)
			}
			return t
		},
	}
	c, err := w.newCluster("ssgd", ds, o)
	if err != nil {
		return err
	}
	defer c.Close()
	for i := 0; i < 60; i++ {
		t0 := time.Now()
		if _, err := c.Step(); err != nil {
			return fmt.Errorf("%s: elastic step %d: %w", w.name, i, err)
		}
		if c.Recoveries() > 0 {
			res.set("elastic.recovery_ms", millis(time.Since(t0)), "ms")
			return c.CheckSync()
		}
	}
	return fmt.Errorf("%s: the injected fault never triggered a recovery", w.name)
}

// layerSim prices the simulator: one discrete-event Simulate call and the
// committed 1000-node chaos scenario. No workload reaches it yet; the rows
// are the ledger for ROADMAP item 3.
func layerSim(root string, res *result) error {
	cfg := sim.Config{
		Model: models.BERTLarge(), Method: sim.MethodACP, Mode: sim.ModeWFBPTF,
		Workers: 32, Net: sim.Net10GbE(), GPU: sim.DefaultGPU(),
	}
	const calls = 10
	var first firstErr
	_, objects := heapDelta(func() {
		res.set("sim.simulate_us", medianMS(calls, func() {
			_, err := sim.Simulate(cfg)
			first.note(err)
		})*1000, "us")
	})
	res.set("sim.simulate_allocs", objects/calls, "count")
	if first.err != nil {
		return first.err
	}
	sc, err := sim.LoadScenario(filepath.Join(root, "scenarios", "1000-node-chaos.json"))
	if err != nil {
		return err
	}
	res.set("sim.scenario_ms", medianMS(3, func() {
		_, err := sim.RunScenario(sc)
		first.note(err)
	}), "ms")
	return first.err
}
