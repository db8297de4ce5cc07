package train

import (
	"acpsgd/internal/comm"
	"acpsgd/internal/compress"
	"acpsgd/internal/nn"
)

// wireBytesPerElem models the fp32 wire format of the paper's setting for
// fusion-buffer budgeting (the in-memory representation is float64, but
// buffer sizes like "25MB" are meaningful in the paper's fp32 terms). It is
// the same constant WireRate quotes compression rates against — sharing it
// keeps the gather group's rate-scaled accounting consistent by
// construction.
const wireBytesPerElem = compress.WireBytesF32

// DefaultBufferBytes is PyTorch-DDP's default 25MB fusion buffer (§IV-B).
const DefaultBufferBytes = 25 * 1024 * 1024

// additiveEntry records where a parameter's payload lives inside a fused
// additive buffer so the aggregated result can be scattered back.
type additiveEntry struct {
	param *nn.Param
	comp  compress.AdditiveCompressor
	off   int
	n     int
}

// additiveBuffer is one tensor-fusion buffer of summable payloads, the unit
// handed to ring all-reduce.
type additiveBuffer struct {
	data    []float64
	entries []additiveEntry
	pending *comm.Pending // in-flight async all-reduce, nil once drained
	err     error         // set when the collective (or its launch) fails
}

// gatherEntry records a parameter's slice inside a packed raw-gradient
// buffer for the all-gather based methods.
type gatherEntry struct {
	param *nn.Param
	off   int
	n     int
}

// gatherBuffer packs the raw gradients of nearby layers, compresses the
// packed vector (the paper packs gradients together before compressing,
// §III-A) and all-gathers the encoded payload — in one piece on the
// unpipelined path, or chunk-by-chunk when PipelineChunks is set.
type gatherBuffer struct {
	packed  []float64
	entries []gatherEntry
	index   int // stable buffer index for per-buffer compressor state
	pending *comm.GatherPending
	// gathered holds the sealed all-gather result from drain until finalize
	// decodes and releases it.
	gathered *comm.Gathered
	err      error

	// Chunk-pipelined state (PipelineChunks > 1): chunk c of the packed
	// vector covers bounds[c]:bounds[c+1]; the chunks stream through one
	// pipelined gather collective and decode in drain as each lands, so when
	// these are set the buffer skips finalize's whole-buffer decode.
	bounds    []int
	pipedGath *comm.PipelinedGather
	decoded   bool
}

// fusionGroup accumulates payloads into buffers of at most budget bytes and
// seals a buffer as soon as it would overflow. A zero budget disables fusion
// (every payload ships alone — the paper's "buffer size 0, optimal WFBP, no
// TF" extreme); a huge budget degenerates to one buffer per step ("full TF,
// no WFBP").
//
// Buffers are persistent: bucket composition is deterministic step to step,
// so the i-th buffer of a step refills the i-th buffer of the step before,
// backing arrays and entry slices included. A buffer's contents are dead by
// then: drain has waited its collective and finalize has scattered it.
type fusionGroup struct {
	budget int
	bufs   []*additiveBuffer // every buffer built so far, in seal order
	sealed []*additiveBuffer // this step's sealed buffers: a prefix of bufs
	cur    *additiveBuffer   // the buffer being filled: bufs[len(sealed)]
	curB   int
	onSeal func(*additiveBuffer)
}

func newFusionGroup(budgetBytes int, onSeal func(*additiveBuffer)) *fusionGroup {
	return &fusionGroup{budget: budgetBytes, onSeal: onSeal}
}

// add appends a payload for param; payloads larger than the budget occupy a
// buffer of their own.
func (g *fusionGroup) add(param *nn.Param, comp compress.AdditiveCompressor, payload []float64) {
	bytes := len(payload) * wireBytesPerElem
	if g.cur != nil && g.curB+bytes > g.budget {
		g.seal()
	}
	if g.cur == nil {
		if len(g.sealed) == len(g.bufs) {
			g.bufs = append(g.bufs, &additiveBuffer{})
		}
		g.cur = g.bufs[len(g.sealed)]
		*g.cur = additiveBuffer{data: g.cur.data[:0], entries: g.cur.entries[:0]}
	}
	off := len(g.cur.data)
	g.cur.data = append(g.cur.data, payload...)
	g.cur.entries = append(g.cur.entries, additiveEntry{param: param, comp: comp, off: off, n: len(payload)})
	g.curB += bytes
	if g.curB >= g.budget {
		g.seal()
	}
}

// seal closes the current buffer and hands it to the comm pipeline.
func (g *fusionGroup) seal() {
	if g.cur == nil {
		return
	}
	buf := g.cur
	g.cur = nil
	g.curB = 0
	g.sealed = g.bufs[:len(g.sealed)+1]
	g.onSeal(buf)
}

// flush seals any partial buffer at the end of back-propagation.
func (g *fusionGroup) flush() { g.seal() }

// reset clears per-step state; the buffers stay for the next step to refill.
func (g *fusionGroup) reset() {
	g.cur = nil
	g.curB = 0
	g.sealed = g.bufs[:0]
}

// gatherGroup is the analogue of fusionGroup for raw-gradient packing. Its
// buffers hold raw gradients but ship compressed payloads, so sealing
// accounts the estimated encoded size (raw wire bytes × the method's
// compression rate) against a budget scaled by the same rate — §IV-B's
// "compressed buffer size = default budget × compression rate", exactly
// parallel to how compGroup meters compressed payloads against its scaled
// budget. The two scalings cancel into the same raw layer coverage as the
// uncompressed path, which is the paper's point: compression must not
// change which layers fuse together.
//
// Its buffers persist across steps exactly like fusionGroup's; a buffer's
// index is its position in bufs.
type gatherGroup struct {
	budget int
	rate   float64         // expected encoded bytes per raw wire byte (1 = raw)
	bufs   []*gatherBuffer // every buffer built so far, in seal order
	sealed []*gatherBuffer // this step's sealed buffers: a prefix of bufs
	cur    *gatherBuffer   // the buffer being filled: bufs[len(sealed)]
	curB   int
	onSeal func(*gatherBuffer)
}

func newGatherGroup(budgetBytes int, onSeal func(*gatherBuffer)) *gatherGroup {
	return &gatherGroup{budget: budgetBytes, rate: 1, onSeal: onSeal}
}

func (g *gatherGroup) add(param *nn.Param, grad []float64) {
	bytes := int(float64(len(grad)*wireBytesPerElem) * g.rate)
	if g.cur != nil && g.curB+bytes > g.budget {
		g.seal()
	}
	if g.cur == nil {
		idx := len(g.sealed)
		if idx == len(g.bufs) {
			g.bufs = append(g.bufs, &gatherBuffer{})
		}
		g.cur = g.bufs[idx]
		*g.cur = gatherBuffer{packed: g.cur.packed[:0], entries: g.cur.entries[:0], index: idx}
	}
	off := len(g.cur.packed)
	g.cur.packed = append(g.cur.packed, grad...)
	g.cur.entries = append(g.cur.entries, gatherEntry{param: param, off: off, n: len(grad)})
	g.curB += bytes
	if g.curB >= g.budget {
		g.seal()
	}
}

func (g *gatherGroup) seal() {
	if g.cur == nil {
		return
	}
	buf := g.cur
	g.cur = nil
	g.curB = 0
	g.sealed = g.bufs[:len(g.sealed)+1]
	g.onSeal(buf)
}

func (g *gatherGroup) flush() { g.seal() }

func (g *gatherGroup) reset() {
	g.cur = nil
	g.curB = 0
	g.sealed = g.bufs[:0]
}
