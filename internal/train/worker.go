package train

import (
	"fmt"
	"math"
	"strconv"
	"sync/atomic"

	"acpsgd/internal/comm"
	"acpsgd/internal/compress"
	"acpsgd/internal/data"
	"acpsgd/internal/nn"
	"acpsgd/internal/tensor"
)

// worker is one data-parallel replica: model, optimizer, data shard, a
// communicator, and the per-method compression state. Each step is a
// two-stage pipeline:
//
//   - Stage 1 (during backward): gradient hooks fired by back-propagation
//     compress payloads and accumulate them into fusion buffers; a buffer
//     that seals — the moment its last gradient lands — launches its
//     collective through the handle-based async communicator (wait-free
//     back-propagation). With Overlap off the launches are deferred, in the
//     identical order, to the end of backward.
//   - Stage 2 (after backward): drain every pending handle, run any
//     post-backward blocking compression chain, then decompress the
//     aggregated payloads back into parameter gradients and apply the
//     optimizer step.
//
// Launch order equals seal order, and seal order is fixed by the
// deterministic reverse-order hook schedule, so every rank issues the same
// collectives in the same order — and Overlap on/off produce bit-identical
// models (asserted in tests).
//
// The worker knows nothing about individual methods: it dispatches on the
// resolved factory's traits (communication Pattern × state Scope) and builds
// compressor state through the factory, so registering a new method in
// internal/compress is all it takes to train with it.
type worker struct {
	rank  int
	cfg   *Config
	model *nn.Model
	com   *comm.Communicator
	async *comm.AsyncCommunicator
	opt   *SGD
	batch *data.Batcher
	loss  nn.SoftmaxCrossEntropy

	matrixParams []*nn.Param
	isMatrix     map[*nn.Param]bool
	matElems     int
	totalElems   int
	// Per-tensor compressor state, built lazily through cfg.fac. Exactly
	// one of these is populated, per the method's Scope and Pattern.
	additive   map[*nn.Param]compress.AdditiveCompressor
	blocking   map[*nn.Param]compress.BlockingCompressor
	gatherComp map[int]compress.GatherCompressor
	// chunked caches the chunk-pipelined view of each buffer's gather
	// compressor (PipelineChunks > 1 only).
	chunked map[int]compress.ChunkedGatherCompressor

	rawGroup  *fusionGroup
	compGroup *fusionGroup
	gatherGrp *gatherGroup

	// launches replays the step's bucket launches in seal order when
	// Overlap is off; with Overlap on each launch fires at seal time and
	// the slice stays empty.
	launches []func()

	// resid holds checkpointed compressor state vectors awaiting their
	// compressor (per-buffer compressors are created lazily on first seal;
	// see worker.restore and applyState). Nil outside recovery.
	resid map[string][]float64

	// poison is the numeric-chaos hook (Cluster.PoisonRank): when set, every
	// step injects a NaN into the loss gradient before backward, simulating a
	// replica whose arithmetic has silently diverged.
	poison atomic.Bool

	step int
}

// isMatrixParam reports whether a parameter is compressed as a matrix: the
// paper compresses 2-D weight tensors and leaves vector-shaped parameters
// (biases) uncompressed (§IV-C).
func isMatrixParam(p *nn.Param) bool {
	return !p.IsVector && p.W.Rows > 1 && p.W.Cols > 1
}

func newWorker(rank int, cfg *Config, model *nn.Model, c *comm.Communicator, shard *data.Dataset) (*worker, error) {
	opt := NewSGD(cfg.Momentum, cfg.WeightDecay)
	if cfg.ClipNorm > 0 {
		opt.SetClipNorm(cfg.ClipNorm)
	}
	w := &worker{
		rank:       rank,
		cfg:        cfg,
		model:      model,
		com:        c,
		async:      comm.NewAsync(c),
		opt:        opt,
		batch:      data.NewBatcher(shard, cfg.BatchPerWorker, cfg.Seed*7919+int64(rank)),
		isMatrix:   make(map[*nn.Param]bool),
		additive:   make(map[*nn.Param]compress.AdditiveCompressor),
		blocking:   make(map[*nn.Param]compress.BlockingCompressor),
		gatherComp: make(map[int]compress.GatherCompressor),
		chunked:    make(map[int]compress.ChunkedGatherCompressor),
	}

	for i, p := range model.Params() {
		w.totalElems += len(p.Grad.Data)
		if !isMatrixParam(p) {
			continue
		}
		w.isMatrix[p] = true
		w.matrixParams = append(w.matrixParams, p)
		n, m := p.W.Rows, p.W.Cols
		w.matElems += n * m
		if cfg.info.Scope != compress.ScopeMatrix {
			continue
		}
		st, err := cfg.fac.New(cfg.spec, compress.Tensor{Rows: n, Cols: m, ID: int64(i), WorkerRank: rank})
		if err != nil {
			w.close()
			return nil, fmt.Errorf("train: %s state for %s: %w", cfg.spec.Name, p.Name, err)
		}
		// File the state by the factory's declared pattern, not by dynamic
		// type, so a compressor that violates (or over-satisfies) the
		// Factory.New contract fails here rather than nil-panicking later.
		switch cfg.info.Pattern {
		case compress.PatternAllReduce:
			comp, ok := st.(compress.AdditiveCompressor)
			if !ok {
				w.close()
				return nil, fmt.Errorf("train: method %s declares %v but built %T", cfg.spec.Name, cfg.info.Pattern, st)
			}
			w.additive[p] = comp
		case compress.PatternBlocking:
			comp, ok := st.(compress.BlockingCompressor)
			if !ok {
				w.close()
				return nil, fmt.Errorf("train: method %s declares %v but built %T", cfg.spec.Name, cfg.info.Pattern, st)
			}
			w.blocking[p] = comp
		default:
			w.close()
			return nil, fmt.Errorf("train: method %s: pattern %v does not fit matrix scope", cfg.spec.Name, cfg.info.Pattern)
		}
	}

	rawBudget := cfg.bufferBytes()
	w.rawGroup = newFusionGroup(rawBudget, w.sealAdditive)
	w.compGroup = newFusionGroup(rawBudget, w.sealAdditive) // re-budgeted per step parity
	w.gatherGrp = newGatherGroup(rawBudget, w.sealGather)
	return w, nil
}

// bufferBytes resolves the fusion budget: NoFusion → 0 (per-tensor comm),
// explicit BufferBytes, else the 25MB default.
func (cfg *Config) bufferBytes() int {
	if cfg.NoFusion {
		return 0
	}
	if cfg.BufferBytes > 0 {
		return cfg.BufferBytes
	}
	return DefaultBufferBytes
}

// close releases the worker's communication goroutine. Close the transport
// first when collectives may still be in flight.
func (w *worker) close() { w.async.Close() }

// schedule registers one bucket launch. With Overlap on it fires
// immediately (the wait-free schedule); with Overlap off it is queued and
// replayed after backward completes. Either way launches happen in seal
// order on the same FIFO communication goroutine, which is what makes the
// two modes issue identical collective sequences.
func (w *worker) schedule(launch func()) {
	if w.cfg.Overlap == OverlapOff {
		w.launches = append(w.launches, launch)
		return
	}
	launch()
}

// sealAdditive launches the ring all-reduce for a sealed fused buffer over
// PipelineChunks segments (0 and 1 both run one segment; every segment count
// is bit-identical, see comm.AllReduceSumPipelined).
func (w *worker) sealAdditive(buf *additiveBuffer) {
	w.schedule(func() { buf.pending = w.async.AllReduceSumAsync(buf.data, w.cfg.PipelineChunks) })
}

// sealGather compresses the packed gradients (inline, on the worker thread,
// as the paper's compression tasks run on the training GPU) and launches the
// all-gather.
//
// With PipelineChunks set, sealing launches a per-chunk pipeline instead:
// chunk c's collective is submitted the moment chunk c is encoded, so with
// overlap on the wire carries chunk c while the worker is still encoding
// chunk c+1 — and drain later decodes chunk c while chunk c+1 is still in
// flight. With overlap off the per-chunk launches replay in the identical
// order after backward, preserving the bit-identity guarantee across all
// four knob combinations.
func (w *worker) sealGather(buf *gatherBuffer) {
	comp, err := w.gatherCompressorFor(buf)
	if err != nil {
		buf.err = err
		return
	}
	if m := w.cfg.PipelineChunks; m > 1 {
		cc := w.chunkedFor(buf, comp)
		buf.bounds = cc.ChunkBounds(m)
		buf.pipedGath = comm.NewPipelinedGather(m)
		// Launch before encoding so the collective forwards chunk c while
		// chunk c+1 is still being encoded (with overlap off the launch is
		// replayed after backward; the fed chunks wait in the handle).
		w.schedule(func() { w.async.LaunchPipelinedGather(buf.pipedGath) })
		for c := 0; c < m; c++ {
			buf.pipedGath.Feed(cc.EncodeChunk(w.step, buf.packed, buf.bounds, c))
		}
		return
	}
	// The encoded payload is compressor-owned and re-leased on the next
	// step; keep it on the stack for the launch closure instead of parking
	// it in the buffer struct, where it would outlive its validity window.
	blob := comp.Encode(w.step, buf.packed)
	w.schedule(func() { buf.pending = w.async.AllGatherAsync(blob) })
}

// chunkedFor returns (caching per buffer) the chunk-pipelined view of the
// buffer's gather compressor.
func (w *worker) chunkedFor(buf *gatherBuffer, comp compress.GatherCompressor) compress.ChunkedGatherCompressor {
	if cc, ok := w.chunked[buf.index]; ok {
		return cc
	}
	cc := compress.Chunked(comp, len(buf.packed))
	w.chunked[buf.index] = cc
	return cc
}

// gatherCompressorFor returns (creating on first use) the per-buffer
// compressor for the packed buffer. Buffer composition is deterministic
// across steps, so state keyed by buffer index is stable.
func (w *worker) gatherCompressorFor(buf *gatherBuffer) (compress.GatherCompressor, error) {
	if c, ok := w.gatherComp[buf.index]; ok {
		return c, nil
	}
	t := compress.Tensor{Rows: len(buf.packed), Cols: 1, ID: int64(buf.index), WorkerRank: w.rank}
	st, err := w.cfg.fac.New(w.cfg.spec, t)
	if err != nil {
		return nil, fmt.Errorf("train: %s state for buffer %d: %w", w.cfg.spec.Name, buf.index, err)
	}
	c, ok := st.(compress.GatherCompressor)
	if !ok {
		return nil, fmt.Errorf("train: method %s is not gather-based (built %T)", w.cfg.spec.Name, st)
	}
	if err := w.applyState("b:"+strconv.Itoa(buf.index), c); err != nil {
		return nil, err
	}
	w.gatherComp[buf.index] = c
	return c, nil
}

// prepareStep resets fusion groups and applies the compression-rate-scaled
// compressed buffer budgets (§IV-B: compressed buffer size = default budget
// × compression rate — for ACP-SGD the rate alternates between the P and Q
// parities, which PayloadLen(step) reports; gather methods declare their
// rate through the factory's WireRate, since their buffers seal on
// raw-gradient bytes but ship compressed payloads).
func (w *worker) prepareStep() {
	w.rawGroup.reset()
	w.compGroup.reset()
	w.gatherGrp.reset()
	w.launches = w.launches[:0]
	// Budget and accounting scale by the same rate (see gatherGroup), so the
	// wire payload per buffer is budget×rate while layer grouping matches
	// the uncompressed path.
	w.gatherGrp.rate = w.gatherRate()
	w.gatherGrp.budget = w.scaledBudget(w.gatherGrp.rate)
	if len(w.additive) == 0 || w.matElems == 0 {
		return
	}
	payload := 0
	for _, p := range w.matrixParams {
		if st, ok := w.additive[p]; ok {
			payload += st.PayloadLen(w.step)
		}
	}
	w.compGroup.budget = w.scaledBudget(float64(payload) / float64(w.matElems))
}

// gatherRate reports the method's expected wire compression rate for the
// gather path (1 when the factory declares none).
func (w *worker) gatherRate() float64 {
	if w.cfg.info.Scope != compress.ScopeBuffer || w.totalElems == 0 {
		return 1
	}
	rater, ok := w.cfg.fac.(compress.WireRater)
	if !ok {
		return 1
	}
	return rater.WireRate(w.cfg.spec, w.totalElems)
}

// scaledBudget applies a compression rate to the configured fusion budget,
// clamping to at least one byte so fusion stays enabled unless NoFusion
// asked for per-tensor communication.
func (w *worker) scaledBudget(rate float64) int {
	budget := int(float64(w.cfg.bufferBytes()) * rate)
	if budget < 1 && !w.cfg.NoFusion {
		budget = 1
	}
	return budget
}

// hook returns the WFBP gradient hook implied by the method's traits.
func (w *worker) hook() nn.GradHook {
	switch w.cfg.info.Scope {
	case compress.ScopeNone:
		return func(p *nn.Param) {
			w.rawGroup.add(p, nil, p.Grad.Data)
		}
	case compress.ScopeBuffer:
		return func(p *nn.Param) {
			w.gatherGrp.add(p, p.Grad.Data)
		}
	case compress.ScopeMatrix:
		if w.cfg.info.Pattern == compress.PatternBlocking {
			return func(p *nn.Param) {
				if w.isMatrix[p] {
					return // compressed after back-propagation (Fig. 4(a))
				}
				w.rawGroup.add(p, nil, p.Grad.Data)
			}
		}
		return func(p *nn.Param) {
			if st, ok := w.additive[p]; ok {
				payload := st.Compress(w.step, p.Grad.Data)
				w.compGroup.add(p, st, payload)
				return
			}
			w.rawGroup.add(p, nil, p.Grad.Data)
		}
	default:
		return nil
	}
}

// flushGroups seals every partial fusion buffer. Idempotent: an already
// flushed group is a no-op.
func (w *worker) flushGroups() {
	w.rawGroup.flush()
	w.compGroup.flush()
	w.gatherGrp.flush()
}

// runStep executes one full training step and returns the batch loss.
func (w *worker) runStep() (float64, error) {
	x, labels := w.batch.Next()
	w.model.ZeroGrads()
	logits := w.model.Forward(x)
	lossVal, dlogits := w.loss.Forward(logits, labels)
	if w.poison.Load() && len(dlogits.Data) > 0 {
		dlogits.Data[0] = math.NaN()
	}

	w.prepareStep()
	hook := w.hook()
	if hook == nil {
		return 0, fmt.Errorf("train: method %s has unsupported scope %v", w.cfg.spec.Name, w.cfg.info.Scope)
	}
	// Stage 1: compress + launch on readiness. The layer hook seals the
	// trailing partial buffers the moment the first layer's backward lands
	// (the model's last gradients), so final-bucket launches do not wait for
	// Backward to unwind.
	w.model.BackwardHooked(dlogits, hook, func(li int, _ nn.Layer) {
		if li == 0 {
			w.flushGroups()
		}
	})
	w.flushGroups() // safety net for hook-less edge cases; normally a no-op
	for _, launch := range w.launches {
		launch() // Overlap off: replay the bucket launches in seal order
	}

	// The local numeric scan overlaps the in-flight collectives, but its
	// verdict is deferred until after drain: bailing out before draining
	// would leave peers wedged in collectives this rank already joined and
	// buffers holding unobserved pending handles.
	var numErr error
	if w.cfg.CheckNumerics {
		numErr = w.checkLocalGrads()
	}

	// Stage 2: drain in-flight collectives, then run any blocking
	// compress+aggregate chain (it must not interleave with queued
	// collectives or ranks would disagree on operation order). The numeric
	// self-report outranks a drain failure: a peer that already spotted the
	// poison in its aggregate aborts the group, which fails this rank's
	// drain with the teardown error — surfacing that instead would erase the
	// only rank-attributable evidence the recovery blame pass gets.
	derr := w.drain()
	if numErr != nil {
		return 0, numErr
	}
	if derr != nil {
		return 0, derr
	}
	if w.cfg.info.Pattern == compress.PatternBlocking {
		for i := len(w.matrixParams) - 1; i >= 0; i-- {
			p := w.matrixParams[i]
			if err := w.blocking[p].CompressStep(w.step, p.Grad.Data, w.com); err != nil {
				return 0, fmt.Errorf("train: rank %d %s %s: %w", w.rank, w.cfg.spec.Name, p.Name, err)
			}
		}
	}

	if err := w.finalize(); err != nil {
		return 0, err
	}
	if w.cfg.CheckNumerics {
		if err := w.checkAggregates(); err != nil {
			return 0, err
		}
	}
	if err := w.opt.Step(w.model.Params()); err != nil {
		return 0, err
	}
	w.step++
	return lossVal, nil
}

// drain waits for every launched collective of the step, in launch order,
// and returns the first failure. All handles are waited even after an error
// so no buffer is left with an unobserved pending operation.
func (w *worker) drain() error {
	var first error
	fail := func(err error, op string) {
		if err != nil && first == nil {
			first = fmt.Errorf("train: rank %d %s: %w", w.rank, op, err)
		}
	}
	for _, group := range []*fusionGroup{w.rawGroup, w.compGroup} {
		for _, buf := range group.sealed {
			if buf.pending != nil {
				buf.err = buf.pending.Wait()
				buf.pending = nil
			}
			fail(buf.err, "all-reduce")
		}
	}
	for _, buf := range w.gatherGrp.sealed {
		if buf.pipedGath != nil {
			w.drainChunked(buf)
			fail(buf.err, "all-gather")
			continue
		}
		if buf.pending != nil {
			buf.gathered, buf.err = buf.pending.Wait()
			buf.pending = nil
		}
		fail(buf.err, "all-gather")
	}
	return first
}

// drainChunked consumes the buffer's pipelined gather chunk by chunk,
// running the fused decode for each chunk the moment it lands — while later
// chunks are still on the wire, serviced by the communication goroutine.
// This is the decode half of intra-buffer pipelining; each chunk's pooled
// region recycles as soon as its decode consumes it. On error the handle is
// drained so no chunk result is left holding pooled memory.
func (w *worker) drainChunked(buf *gatherBuffer) {
	cc := w.chunked[buf.index]
	m := len(buf.bounds) - 1
	for c := 0; c < m; c++ {
		g, err := buf.pipedGath.Next()
		if err != nil {
			if buf.err == nil {
				buf.err = err
			}
			break
		}
		if buf.err == nil {
			if derr := cc.DecodeChunk(w.step, g.Payloads(), buf.packed, buf.bounds, c); derr != nil {
				buf.err = derr
			}
		}
		g.Release()
	}
	buf.pipedGath.Drain()
	buf.pipedGath = nil
	buf.decoded = buf.err == nil
}

// finalize scatters aggregated payloads back into parameter gradients.
// drain must have completed first (every buffer's result and error is
// resolved by then).
func (w *worker) finalize() error {
	p := w.com.Size()
	for _, group := range []*fusionGroup{w.rawGroup, w.compGroup} {
		for _, buf := range group.sealed {
			if buf.err != nil {
				return fmt.Errorf("train: rank %d all-reduce: %w", w.rank, buf.err)
			}
			for _, e := range buf.entries {
				agg := buf.data[e.off : e.off+e.n]
				if e.comp != nil {
					e.comp.Finalize(w.step, agg, p, e.param.Grad.Data)
					continue
				}
				tensor.Scale(1/float64(p), agg, e.param.Grad.Data)
			}
		}
	}
	for _, buf := range w.gatherGrp.sealed {
		if buf.err != nil {
			return fmt.Errorf("train: rank %d all-gather: %w", w.rank, buf.err)
		}
		// Chunk-pipelined buffers were decoded incrementally in drain;
		// unpipelined buffers still need the fused decode pass over the
		// sealed gather region, whose pooled memory recycles the moment the
		// decode consumes it.
		if !buf.decoded {
			comp := w.gatherComp[buf.index]
			err := comp.Decode(w.step, buf.gathered.Payloads(), buf.packed)
			buf.gathered.Release()
			buf.gathered = nil
			if err != nil {
				return fmt.Errorf("train: rank %d decode: %w", w.rank, err)
			}
		}
		for _, e := range buf.entries {
			copy(e.param.Grad.Data, buf.packed[e.off:e.off+e.n])
		}
	}
	return nil
}

// evaluate computes accuracy of the worker's model over a dataset, batching
// the forward pass.
func (w *worker) evaluate(d *data.Dataset) float64 {
	const evalBatch = 256
	n := d.Len()
	if n == 0 {
		return 0
	}
	correct := 0.0
	for lo := 0; lo < n; lo += evalBatch {
		hi := lo + evalBatch
		if hi > n {
			hi = n
		}
		rows := hi - lo
		x := tensor.FromSlice(rows, d.Features(), d.X.Data[lo*d.Features():hi*d.Features()])
		logits := w.model.Forward(x)
		correct += nn.Accuracy(logits, d.Labels[lo:hi]) * float64(rows)
	}
	return correct / float64(n)
}
