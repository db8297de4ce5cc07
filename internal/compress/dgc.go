package compress

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"acpsgd/internal/tensor"
)

// dgcAccumulate runs DGC's fused momentum-correction and velocity update
// over [lo, hi): u ← m·u + g, v ← v + u.
func dgcAccumulate(u, v, grad []float64, m float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		u[i] = m*u[i] + grad[i]
		v[i] += u[i]
	}
}

// DGC implements Deep Gradient Compression (Lin et al., ICLR 2018, the
// momentum-corrected Top-k family the paper's related work contrasts with
// plain sparsification). Each worker keeps two accumulators per tensor:
//
//	u ← m·u + g        (momentum correction)
//	v ← v + u          (gradient accumulation, the error-feedback analogue)
//
// and transmits the k largest-magnitude coordinates of v as (index, value)
// pairs. In Lin et al.'s formulation u replaces the optimizer's momentum
// buffer: workers run momentum locally, before sparsification, and the
// optimizer applies the aggregated sparse update with plain SGD. The
// momentum param therefore defaults to 0 here — train.Config applies its
// own momentum after decompression, and layering both compounds the
// 1/(1−m) steady-state gain into divergence. Set the trainer's Momentum to
// 0 and momentum=0.9 on the spec to recover the paper's setup (asserted
// equivalent to outer-momentum training in the train tests); at momentum=0
// DGC reduces to exact-selection Top-k with gradient accumulation.
//
// Transmitted coordinates are cleared from v, and — momentum factor
// masking — from u as well, so stale momentum does not push a just-sent
// coordinate immediately back over the threshold. Payloads are all-gathered
// and scatter-added like Top-k's (the values are sparse and non-additive in
// transit, §III-C).
//
// This file is the canonical example of the registry's drop-in contract:
// the compressor, its factory and its registration live here and nowhere
// else — no trainer, core, sim or cmd changes were needed to add it.
type DGC struct {
	n, k     int
	momentum float64
	masking  bool
	u, v     []float64
	rng      *rand.Rand // quickselect pivots

	// scratch
	picker topSelector
	enc    []byte

	chunkOffs []int // per-chunk byte offsets into enc (chunked encode)
}

var _ GatherCompressor = (*DGC)(nil)
var _ ChunkedGatherCompressor = (*DGC)(nil)

// NewDGC returns a DGC compressor for a tensor of n elements transmitting k
// coordinates per step with the given momentum-correction factor.
func NewDGC(n, k int, momentum float64, masking bool, tensorID int64) *DGC {
	if k < 1 {
		k = 1
	}
	if k > n && n > 0 {
		k = n
	}
	rng := newSeededRNG(tensorID)
	return &DGC{
		n:        n,
		k:        k,
		momentum: momentum,
		masking:  masking,
		u:        make([]float64, n),
		v:        make([]float64, n),
		rng:      rng,
		picker:   topSelector{rng: rng},
	}
}

// K returns the per-step coordinate budget.
func (d *DGC) K() int { return d.k }

// Encode folds the local gradient into the momentum and velocity
// accumulators (one fused, sharded sweep) and serializes the k
// largest-magnitude velocity coordinates straight into the compressor's
// pooled payload buffer (valid until the next Encode call).
func (d *DGC) Encode(_ int, grad []float64) []byte {
	if len(grad) != d.n {
		panic(fmt.Sprintf("compress: DGC.Encode length %d, want %d", len(grad), d.n))
	}
	d.accumulate(grad)
	selected := d.picker.exact(d.v, d.k)
	d.enc = grownBytes(d.enc, len(selected)*topkPairBytes)
	d.serialize(selected)
	return d.enc
}

// accumulate runs the fused momentum-correction/velocity sweep, sharded
// above the serial threshold. Shared verbatim by the unchunked and chunked
// encode paths so their accumulator state evolves identically.
func (d *DGC) accumulate(grad []float64) {
	u, v, m := d.u, d.v, d.momentum
	if shards := tensor.ShardCount(d.n, compressWork(d.n)); shards > 1 {
		tensor.RunShards(d.n, shards, func(_, lo, hi int) {
			dgcAccumulate(u, v, grad, m, lo, hi)
		})
	} else {
		dgcAccumulate(u, v, grad, m, 0, d.n)
	}
}

// serialize writes the selected velocity coordinates as (index, value)
// pairs into the pooled payload buffer, clearing the transmitted slots
// (shared by the unchunked and chunked encode paths — per-index effects are
// identical whatever the pair order).
func (d *DGC) serialize(selected []int) {
	u, v, out := d.u, d.v, d.enc
	for i, ix := range selected {
		binary.LittleEndian.PutUint32(out[i*topkPairBytes:], uint32(ix))
		binary.LittleEndian.PutUint64(out[i*topkPairBytes+4:], math.Float64bits(v[ix]))
		v[ix] = 0 // transmitted mass leaves the accumulator
		if d.masking {
			u[ix] = 0 // momentum factor masking
		}
	}
}

// ChunkBounds partitions the tensor into m near-equal pipeline chunks.
func (d *DGC) ChunkBounds(m int) []int { return ChunkBounds(d.n, m, 1) }

// EncodeChunk returns the (index, value) pairs falling inside chunk c. The
// chunk-0 call runs the whole encode (the accumulator update and selection
// are global) and serializes the pairs grouped by chunk, exactly like
// TopK.EncodeChunk.
func (d *DGC) EncodeChunk(_ int, grad []float64, bounds []int, c int) []byte {
	if c == 0 {
		if len(grad) != d.n {
			panic(fmt.Sprintf("compress: DGC.EncodeChunk length %d, want %d", len(grad), d.n))
		}
		d.accumulate(grad)
		selected := d.picker.exact(d.v, d.k)
		sort.Ints(selected)
		d.enc = grownBytes(d.enc, len(selected)*topkPairBytes)
		d.serialize(selected)
		d.chunkOffs = pairChunkOffsets(d.chunkOffs, selected, bounds)
	}
	return d.enc[d.chunkOffs[c]:d.chunkOffs[c+1]]
}

// DecodeChunk scatter-adds every rank's chunk-c pairs into
// grad[bounds[c]:bounds[c+1]], zeroing only that range.
func (d *DGC) DecodeChunk(_ int, blobs [][]byte, grad []float64, bounds []int, c int) error {
	if len(grad) != d.n {
		return fmt.Errorf("compress: DGC.DecodeChunk length %d, want %d", len(grad), d.n)
	}
	p := len(blobs)
	if p == 0 {
		return fmt.Errorf("compress: DGC.DecodeChunk got no payloads")
	}
	return scatterAddPairsRange(blobs, grad, 1/float64(p), bounds[c], bounds[c+1], "DGC.DecodeChunk")
}

// Decode scatter-adds every worker's sparse payload, scaled by 1/p, in one
// fused pass, producing the global mean of the sparsified updates.
func (d *DGC) Decode(_ int, blobs [][]byte, grad []float64) error {
	if len(grad) != d.n {
		return fmt.Errorf("compress: DGC.Decode length %d, want %d", len(grad), d.n)
	}
	p := len(blobs)
	if p == 0 {
		return fmt.Errorf("compress: DGC.Decode got no payloads")
	}
	return scatterAddPairs(blobs, grad, 1/float64(p), "DGC.Decode")
}

// AccumulatorNorm returns the L2 norm of the velocity accumulator
// (diagnostics, the analogue of the other methods' ErrorNorm).
func (d *DGC) AccumulatorNorm() float64 {
	var sum float64
	for _, v := range d.v {
		sum += v * v
	}
	return math.Sqrt(sum)
}

// dgcDefaults is the single source of DGC's default params (momentum 0 for
// the reason the type comment gives: this trainer owns momentum).
var dgcDefaults = Params{
	"ratio":    defaultRatio,
	"momentum": "0",
	"masking":  "true",
}

// dgcFactory registers DGC.
type dgcFactory struct{}

func (dgcFactory) Info() MethodInfo {
	return MethodInfo{
		Name:     "dgc",
		Pattern:  PatternAllGather,
		Scope:    ScopeBuffer,
		Defaults: dgcDefaults,
	}
}

func (dgcFactory) Validate(spec Spec) error {
	p := spec.Params.withDefaults(dgcDefaults)
	if _, err := ratioParam(p); err != nil {
		return err
	}
	m, err := p.Float("momentum", 0)
	if err != nil {
		return err
	}
	if m < 0 || m >= 1 {
		return fmt.Errorf("param momentum=%g: want 0 <= momentum < 1", m)
	}
	_, err = p.Bool("masking", true)
	return err
}

// WireRate reports DGC's expected wire compression rate.
func (dgcFactory) WireRate(spec Spec, _ int) float64 {
	return sparseWireRate(spec.Params.withDefaults(dgcDefaults))
}

func (dgcFactory) New(spec Spec, t Tensor) (any, error) {
	p := spec.Params.withDefaults(dgcDefaults)
	ratio, err := ratioParam(p)
	if err != nil {
		return nil, err
	}
	m, err := p.Float("momentum", 0)
	if err != nil {
		return nil, err
	}
	masking, err := p.Bool("masking", true)
	if err != nil {
		return nil, err
	}
	n := t.Len()
	return NewDGC(n, int(ratio*float64(n)), m, masking, t.MixedSeed(1<<22)), nil
}

func init() { Register(dgcFactory{}) }
