package compress

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"acpsgd/internal/tensor"
)

// Selection chooses how Top-k coordinates are found.
type Selection int

const (
	// SelectExact finds the exact k largest-magnitude coordinates
	// (sampled-threshold prefilter + quickselect of the survivors). This is
	// the paper's "very computationally inefficient on GPUs" reference point.
	SelectExact Selection = iota + 1
	// SelectSampled is the multiple-sampling scheme of footnote 2: estimate
	// a magnitude threshold from a random sample's order statistics and keep
	// every coordinate above it, truncating to at most 2k.
	SelectSampled
)

// TopK implements Top-k sparsification with error feedback: each worker
// transmits its k largest-magnitude coordinates of gradient+error as
// (index, value) pairs; workers all-gather the sparse payloads and
// scatter-add them (different workers select different coordinates, which is
// why the payloads are not additive in transit; §III-C).
//
// The error memory doubles as the adjusted vector (err += grad, select on
// err, zero the transmitted slots), so the EF encode path is one fused sweep
// plus the selection pass. Encode writes into a buffer the compressor owns
// and re-leases each call (pooled payload ownership, kernels.go); Decode is
// the fused multi-peer scatter-add with the 1/p averaging folded in.
type TopK struct {
	n, k  int
	sel   Selection
	err   []float64
	useEF bool
	seed  int64 // RNG rebase key; see rng.go
	rng   *rand.Rand

	// scratch
	picker topSelector
	enc    []byte

	chunkOffs []int // per-chunk byte offsets into enc (chunked encode)
}

var _ GatherCompressor = (*TopK)(nil)
var _ ChunkedGatherCompressor = (*TopK)(nil)

// NewTopK returns a Top-k compressor for a tensor of n elements selecting k
// coordinates per step.
func NewTopK(n, k int, sel Selection, useEF bool, tensorID int64) *TopK {
	if k < 1 {
		k = 1
	}
	if k > n && n > 0 {
		k = n
	}
	rng := newStepRNG()
	return &TopK{
		n:      n,
		k:      k,
		sel:    sel,
		err:    make([]float64, n),
		useEF:  useEF,
		seed:   tensorID,
		rng:    rng,
		picker: topSelector{rng: rng},
	}
}

// K returns the per-step coordinate budget.
func (t *TopK) K() int { return t.k }

const topkPairBytes = 4 + 8 // uint32 index + float64 value

// Encode selects coordinates of grad+err and serializes (index, value)
// pairs. Error memory keeps the unselected mass. The returned payload is
// owned by the compressor and valid until the next Encode call.
func (t *TopK) Encode(step int, grad []float64) []byte {
	if len(grad) != t.n {
		panic(fmt.Sprintf("compress: TopK.Encode length %d, want %d", len(grad), t.n))
	}
	t.rng.Seed(stepSeed(t.seed, step))
	src := t.foldEF(grad)
	selected := t.selectFrom(src)
	t.serialize(src, selected)
	return t.enc
}

// serialize writes the selected coordinates as (index, value) pairs into
// the pooled payload buffer, clearing the transmitted EF slots (shared by
// the unchunked and chunked encode paths — per-index effects are identical
// whatever the pair order).
func (t *TopK) serialize(src []float64, selected []int) {
	t.enc = grownBytes(t.enc, len(selected)*topkPairBytes)
	out := t.enc
	for i, ix := range selected {
		v := src[ix]
		binary.LittleEndian.PutUint32(out[i*topkPairBytes:], uint32(ix))
		binary.LittleEndian.PutUint64(out[i*topkPairBytes+4:], math.Float64bits(v))
		if t.useEF {
			t.err[ix] = 0 // transmitted mass leaves the memory
		}
	}
}

// foldEF folds the new gradient into the error memory (err is then the
// adjusted vector selection reads directly) and returns the selection
// source. Shared verbatim by the unchunked and chunked encode paths so their
// EF state (and therefore every downstream bit) evolves identically.
func (t *TopK) foldEF(grad []float64) []float64 {
	if !t.useEF {
		return grad
	}
	err := t.err
	if shards := tensor.ShardCount(t.n, compressWork(t.n)); shards > 1 {
		tensor.RunShards(t.n, shards, func(_, lo, hi int) {
			addInto(err, grad, lo, hi)
		})
	} else {
		addInto(err, grad, 0, t.n)
	}
	return err
}

// selectFrom runs the configured coordinate selection. The RNG stream it
// consumes is identical whichever encode path calls it — the root of the
// chunked path's bit-identity.
func (t *TopK) selectFrom(src []float64) []int {
	if t.sel == SelectSampled {
		return t.picker.sampled(src, t.k)
	}
	return t.picker.exact(src, t.k)
}

// ChunkBounds partitions the tensor into m near-equal pipeline chunks
// (sparse payloads need no alignment).
func (t *TopK) ChunkBounds(m int) []int { return ChunkBounds(t.n, m, 1) }

// EncodeChunk returns the (index, value) pairs falling inside chunk c. The
// chunk-0 call runs the whole encode — EF fold, selection and the EF update
// are global by nature — and serializes the pairs grouped by chunk
// (ascending index), so later chunks are pure payload views: the wire and
// the decode pipeline per chunk, the selection does not. The result decodes
// bit-identically to the unchunked payload because scatter-add order per
// element is rank order either way.
func (t *TopK) EncodeChunk(step int, grad []float64, bounds []int, c int) []byte {
	if c == 0 {
		t.encodeChunkedPrepass(step, grad, bounds)
	}
	return t.enc[t.chunkOffs[c]:t.chunkOffs[c+1]]
}

// encodeChunkedPrepass is Encode with the pair stream sorted ascending and
// split at the chunk bounds.
func (t *TopK) encodeChunkedPrepass(step int, grad []float64, bounds []int) {
	if len(grad) != t.n {
		panic(fmt.Sprintf("compress: TopK.EncodeChunk length %d, want %d", len(grad), t.n))
	}
	t.rng.Seed(stepSeed(t.seed, step))
	src := t.foldEF(grad)
	selected := t.selectFrom(src)
	sort.Ints(selected)
	t.serialize(src, selected)
	t.chunkOffs = pairChunkOffsets(t.chunkOffs, selected, bounds)
}

// pairChunkOffsets computes per-chunk byte offsets into an ascending
// (index, value) pair stream: chunk j's pairs occupy offs[j]:offs[j+1].
func pairChunkOffsets(offs, sortedIdx, bounds []int) []int {
	m := len(bounds) - 1
	offs = grownInts(offs, m+1)
	offs[0] = 0
	pos := 0
	for j := 1; j <= m; j++ {
		for pos < len(sortedIdx) && sortedIdx[pos] < bounds[j] {
			pos++
		}
		offs[j] = pos * topkPairBytes
	}
	return offs
}

// DecodeChunk scatter-adds every rank's chunk-c pairs into
// grad[bounds[c]:bounds[c+1]], zeroing only that range.
func (t *TopK) DecodeChunk(_ int, blobs [][]byte, grad []float64, bounds []int, c int) error {
	if len(grad) != t.n {
		return fmt.Errorf("compress: TopK.DecodeChunk length %d, want %d", len(grad), t.n)
	}
	p := len(blobs)
	if p == 0 {
		return fmt.Errorf("compress: TopK.DecodeChunk got no payloads")
	}
	return scatterAddPairsRange(blobs, grad, 1/float64(p), bounds[c], bounds[c+1], "TopK.DecodeChunk")
}

// Decode scatter-adds every worker's sparse payload, scaled by 1/p, in one
// fused pass, producing the global mean of the sparsified gradients.
func (t *TopK) Decode(_ int, blobs [][]byte, grad []float64) error {
	if len(grad) != t.n {
		return fmt.Errorf("compress: TopK.Decode length %d, want %d", len(grad), t.n)
	}
	p := len(blobs)
	if p == 0 {
		return fmt.Errorf("compress: TopK.Decode got no payloads")
	}
	return scatterAddPairs(blobs, grad, 1/float64(p), "TopK.Decode")
}

// ErrorNorm returns the L2 norm of the error-feedback memory (diagnostics).
func (t *TopK) ErrorNorm() float64 {
	var sum float64
	for _, v := range t.err {
		sum += v * v
	}
	return math.Sqrt(sum)
}

// quickselectTopK partitions idx so the first k entries have the largest
// mags values (unordered), keying mags by the values stored in idx.
// Average O(n).
func quickselectTopK(idx []int, mags []float64, k int, rng *rand.Rand) {
	lo, hi := 0, len(idx)-1
	for lo < hi {
		// Median-of-random pivot keeps adversarial inputs at bay.
		p := lo + rng.Intn(hi-lo+1)
		pivot := mags[idx[p]]
		idx[p], idx[hi] = idx[hi], idx[p]
		store := lo
		for i := lo; i < hi; i++ {
			if mags[idx[i]] > pivot {
				idx[store], idx[i] = idx[i], idx[store]
				store++
			}
		}
		idx[store], idx[hi] = idx[hi], idx[store]
		switch {
		case store == k || store == k-1:
			// Positions [0,store) hold values > pivot and position store holds
			// the pivot itself, so the first k entries are a valid top-k set.
			return
		case store > k:
			hi = store - 1
		default:
			lo = store + 1
		}
	}
}

// ratioParam reads and range-checks a sparsification density param from a
// defaults-merged param bag.
func ratioParam(p Params) (float64, error) {
	ratio, err := p.Float("ratio", 0)
	if err != nil {
		return 0, err
	}
	if ratio <= 0 || ratio > 1 {
		return 0, fmt.Errorf("param ratio=%g: want 0 < ratio <= 1", ratio)
	}
	return ratio, nil
}

// selectionParam reads the top-k selection scheme param.
func selectionParam(p Params) (Selection, error) {
	s, err := p.Enum("selection", "sampled", "exact", "sampled")
	if err != nil {
		return 0, err
	}
	if s == "exact" {
		return SelectExact, nil
	}
	return SelectSampled, nil
}

// sparseWireRate is the shared WireRate of the (index, value)-pair methods:
// ratio coordinates per element at 12 bytes each over 4-byte fp32 words.
func sparseWireRate(p Params) float64 {
	ratio, err := ratioParam(p)
	if err != nil {
		return 1
	}
	rate := ratio * float64(topkPairBytes) / float64(WireBytesF32)
	if rate > 1 {
		rate = 1
	}
	return rate
}

// defaultRatio is the paper's 0.1% density for Top-k-family methods.
const defaultRatio = "0.001"

// topkDefaults is the single source of Top-k's default params (reported by
// Info and folded in by withDefaults).
var topkDefaults = Params{
	"ratio":     defaultRatio,
	"selection": "sampled",
	"ef":        "true",
}

// topkFactory registers Top-k SGD with multi-sampling selection.
type topkFactory struct{}

func (topkFactory) Info() MethodInfo {
	return MethodInfo{
		Name:     "topk",
		Aliases:  []string{"top-k"},
		Pattern:  PatternAllGather,
		Scope:    ScopeBuffer,
		Defaults: topkDefaults,
	}
}

func (topkFactory) Validate(spec Spec) error {
	p := spec.Params.withDefaults(topkDefaults)
	if _, err := ratioParam(p); err != nil {
		return err
	}
	if _, err := selectionParam(p); err != nil {
		return err
	}
	_, err := p.Bool("ef", true)
	return err
}

func (topkFactory) New(spec Spec, t Tensor) (any, error) {
	p := spec.Params.withDefaults(topkDefaults)
	ratio, err := ratioParam(p)
	if err != nil {
		return nil, err
	}
	sel, err := selectionParam(p)
	if err != nil {
		return nil, err
	}
	ef, err := p.Bool("ef", true)
	if err != nil {
		return nil, err
	}
	n := t.Len()
	return NewTopK(n, int(ratio*float64(n)), sel, ef, t.MixedSeed(1<<20)), nil
}

// WireRate reports Top-k's expected wire compression rate. Sampled
// selection ships between k and 2k pairs per encode, so its rate doubles —
// the budget promise ("wire payload per buffer <= budget × rate") must hold
// at the selection's upper bound.
func (topkFactory) WireRate(spec Spec, _ int) float64 {
	p := spec.Params.withDefaults(topkDefaults)
	rate := sparseWireRate(p)
	if sel, err := selectionParam(p); err == nil && sel == SelectSampled {
		rate *= 2
	}
	if rate > 1 {
		rate = 1
	}
	return rate
}

func init() {
	Register(topkFactory{})
}
