// Package compress implements the gradient compression methods the paper
// evaluates and the one it contributes:
//
//   - Sign-SGD with majority vote (quantization; §II-B.1)
//   - Top-k SGD with multi-sampling threshold selection (sparsification;
//     §II-B.2, footnote 2)
//   - Power-SGD (low-rank power iteration; §II-B.3, Algorithm 1)
//   - ACP-SGD (alternate compressed Power-SGD with error feedback and query
//     reuse; §IV, Algorithms 1–2) — the paper's contribution
//   - DGC from the paper's related work
//
// Compressors are per-tensor, per-worker state machines. They are split
// along the communication-pattern boundary the paper's §III-C analysis draws
// (see Pattern): additive compressors produce float payloads that can be
// summed by ring all-reduce, gather compressors produce opaque byte payloads
// that must be all-gathered, and blocking compressors interleave computation
// with all-reduce rounds after back-propagation.
//
// Methods are selected through the registry API: a Spec (method name +
// params, parsed from strings like "topk:ratio=0.01,selection=exact")
// resolves to a Factory that validates its own params and constructs
// per-tensor compressor state. Each method registers itself from its own
// file via Register, so adding a method is a one-file drop-in — dgc.go is
// the reference example.
package compress

import (
	"math/rand"

	"acpsgd/internal/tensor"
)

// AdditiveCompressor produces summable float payloads, the property (§III-C
// "additive communication") that enables ring all-reduce. Implementations
// are stateful per tensor and per worker.
type AdditiveCompressor interface {
	// Compress consumes the local gradient for this step and returns the
	// payload to be summed across workers. The returned slice is owned by
	// the compressor and valid until the next call.
	Compress(step int, grad []float64) []float64
	// Finalize consumes the aggregated (summed) payload and writes the
	// decompressed global mean gradient over grad. p is the worker count.
	Finalize(step int, aggregated []float64, p int, grad []float64)
	// PayloadLen reports the payload length for this step (constant for
	// S-SGD, alternating |P| / |Q| for ACP-SGD).
	PayloadLen(step int) int
}

// GatherCompressor produces opaque byte payloads that are all-gathered
// (Sign-SGD, Top-k): compressed values from different workers cannot be
// summed in transit (§III-C).
//
// # Payload lifetime contract (normative)
//
// The slice Encode (and EncodeChunk) returns is owned by the compressor —
// most implementations serve views of one pooled buffer that the next
// Encode reuses. Callers must treat it as a borrowed, read-only view:
//
//  1. Do not store it into a struct field or container that outlives the
//     call site; hand it straight to the collective (which copies it into
//     a transport lease) or keep it in a local that dies before the
//     compressor's next Encode.
//  2. Do not mutate it: no element writes, no append, no copy into it.
//     The compressor may reuse the same bytes for its own state.
//  3. After handing a transport lease containing payload bytes to
//     SendNoCopy, do not write to that lease unless it was Retained first.
//
// The acpvet payloadown analyzer enforces these rules statically; the rare
// sanctioned exception (a one-shot compressor that never encodes again, an
// adapter serving sub-views inside the validity window) carries an
// `//acpvet:ignore <reason>` directive.
type GatherCompressor interface {
	// Encode compresses the local gradient for this step. The returned
	// payload is owned by the compressor and valid only until its next
	// Encode/EncodeChunk — see the payload lifetime contract above.
	Encode(step int, grad []float64) []byte
	// Decode merges every worker's payload into the global mean gradient,
	// written over grad.
	Decode(step int, blobs [][]byte, grad []float64) error
}

// Gathered is the read-only view of an all-gather's result: per-rank
// payloads plus a Release that hands pooled backing memory back to the
// transport. comm.Gathered implements it over leased receive buffers; tests
// and single-process harnesses use PayloadList.
type Gathered interface {
	// Ranks returns the number of gathered payloads.
	Ranks() int
	// Payload returns rank r's payload, read-only and valid until Release.
	Payload(r int) []byte
	// Release recycles the backing memory; all payload views are invalid
	// afterwards.
	Release()
}

// PayloadList adapts an in-memory [][]byte to the Gathered view (tests,
// simulators, single-process harnesses). Release is a no-op.
type PayloadList [][]byte

// Ranks returns the number of payloads.
func (l PayloadList) Ranks() int { return len(l) }

// Payload returns payload r.
func (l PayloadList) Payload(r int) []byte { return l[r] }

// Release is a no-op: the payloads are ordinary garbage-collected slices.
func (PayloadList) Release() {}

// Collectives is the slice of communicator functionality a
// BlockingCompressor needs; *comm.Communicator satisfies it.
type Collectives interface {
	AllReduceSum(buf []float64) error
	Size() int
}

// BlockingCompressor runs a whole compress→aggregate→decompress step with
// interleaved communication (Power-SGD's compute P → all-reduce P →
// compute Q → all-reduce Q chain, which is what blocks WFBP; §III-C).
type BlockingCompressor interface {
	// CompressStep replaces grad with the aggregated mean gradient.
	CompressStep(step int, grad []float64, c Collectives) error
}

// Identity is the S-SGD "compressor": the payload is the gradient itself.
type Identity struct {
	buf []float64
}

var _ AdditiveCompressor = (*Identity)(nil)

// NewIdentity returns the S-SGD pass-through for a tensor of n elements.
func NewIdentity(n int) *Identity { return &Identity{buf: make([]float64, n)} }

// Compress copies the gradient into the payload buffer.
func (id *Identity) Compress(_ int, grad []float64) []float64 {
	copy(id.buf, grad)
	return id.buf
}

// Finalize writes the aggregated mean into grad through the fused tensor
// scale kernel.
func (id *Identity) Finalize(_ int, aggregated []float64, p int, grad []float64) {
	tensor.Scale(1/float64(p), aggregated, grad)
}

// PayloadLen returns the tensor size.
func (id *Identity) PayloadLen(int) int { return len(id.buf) }

// ssgdFactory registers uncompressed S-SGD: no per-tensor state, gradients
// ship raw through ring all-reduce.
type ssgdFactory struct{}

func (ssgdFactory) Info() MethodInfo {
	return MethodInfo{
		Name:    "ssgd",
		Aliases: []string{"sgd", "s-sgd"},
		Pattern: PatternAllReduce,
		Scope:   ScopeNone,
	}
}

func (ssgdFactory) Validate(Spec) error { return nil }

func (ssgdFactory) New(_ Spec, t Tensor) (any, error) { return NewIdentity(t.Len()), nil }

func init() { Register(ssgdFactory{}) }

// newSeededRNG derives a deterministic RNG shared by all workers for a given
// tensor, so randomized initializations (Power-SGD/ACP Q₀, P₀) agree across
// ranks without communication — the paper's implementations achieve the same
// with a shared seed.
func newSeededRNG(tensorID int64) *rand.Rand {
	return rand.New(rand.NewSource(0x5eed<<32 ^ tensorID))
}
