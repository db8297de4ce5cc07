package compress

import (
	"encoding/binary"
	"fmt"
	"math"

	"acpsgd/internal/tensor"
)

// QSGD implements stochastic quantization (Alistarh et al., paper [16]):
// each element is randomly rounded to one of s+1 magnitude levels of the
// vector's L2 norm, giving an unbiased estimator whose wire format is one
// byte per element (sign + 7-bit level, s <= 127) plus the norm. Like
// Sign-SGD it is non-additive and all-gathered (§III-C).
//
// Encode stays sequential (the stochastic-rounding RNG stream is a serial
// dependency) but hoists the per-element division out of the loop and
// writes into the compressor's pooled payload buffer. Decode is bulk: each
// rank's 256 possible code bytes expand through a per-rank lookup table
// (with the 1/p averaging folded in), and the element sweep accumulates all
// ranks in one fused, sharded pass.
type QSGD struct {
	n      int
	levels int
	seed   int64 // RNG rebase key; see rng.go
	rng    randSource

	enc  []byte    // pooled payload buffer
	luts []float64 // p*256 per-rank decode tables

	encChunks  []byte   // chunked-encode payload arena
	chunkViews [][]byte // per-chunk payload views into encChunks
	chunkNorm  float64  // norm computed by the chunk-0 pre-pass
}

// randSource is the minimal random interface quantizers need; it allows
// deterministic tests.
type randSource interface {
	Float64() float64
}

var _ GatherCompressor = (*QSGD)(nil)
var _ ChunkedGatherCompressor = (*QSGD)(nil)

// NewQSGD returns a QSGD compressor with the given number of quantization
// levels (clamped to [1, 127]).
func NewQSGD(n, levels int, tensorID int64) *QSGD {
	if levels < 1 {
		levels = 1
	}
	if levels > 127 {
		levels = 127
	}
	return &QSGD{n: n, levels: levels, seed: tensorID, rng: newStepRNG()}
}

// qsgdPayloadLen is 8 bytes of norm plus one byte per element.
func qsgdPayloadLen(n int) int { return 8 + n }

// Encode stochastically quantizes grad. The encoding of element i is
// sign(g_i) * round_stochastic(|g_i|/norm * s) packed as sign bit + level.
// The returned payload is owned by the compressor and valid until the next
// Encode call.
func (q *QSGD) Encode(step int, grad []float64) []byte {
	if len(grad) != q.n {
		panic(fmt.Sprintf("compress: QSGD.Encode length %d, want %d", len(grad), q.n))
	}
	reseed(q.rng, q.seed, step)
	norm := qsgdNorm(grad)
	q.enc = grownBytes(q.enc, qsgdPayloadLen(q.n))
	out := q.enc
	binary.LittleEndian.PutUint64(out, math.Float64bits(norm))
	if norm == 0 {
		clear(out[8:])
		return out
	}
	q.quantizeRange(out[8:], grad, float64(q.levels)/norm)
	return out
}

// qsgdNorm is the L2 reduction of encode's pre-pass, shared by the
// unchunked and chunked paths.
func qsgdNorm(grad []float64) float64 {
	var norm float64
	for _, v := range grad {
		norm += v * v
	}
	return math.Sqrt(norm)
}

// quantizeRange stochastically rounds grad into codes. The RNG stream is a
// serial dependency, so the chunked path calls this chunk-by-chunk in order
// and consumes exactly the element sequence of the unchunked encode —
// bit-identical codes either way.
func (q *QSGD) quantizeRange(codes []byte, grad []float64, f float64) {
	for i, v := range grad {
		l := math.Abs(v) * f
		lower := math.Floor(l)
		if q.rng.Float64() < l-lower {
			lower++
		}
		if lower > 127 {
			lower = 127
		}
		b := byte(lower)
		if v < 0 {
			b |= 0x80
		}
		codes[i] = b
	}
}

// ChunkBounds partitions the tensor into m near-equal pipeline chunks (one
// code byte per element needs no alignment).
func (q *QSGD) ChunkBounds(m int) []int { return ChunkBounds(q.n, m, 1) }

// EncodeChunk quantizes elements [bounds[c], bounds[c+1]) into chunk c's
// pooled payload: an 8-byte norm header (the whole-buffer L2 norm computed
// by the chunk-0 pre-pass, shared by every chunk so they decode
// independently) plus one code byte per element. Unlike the sparse methods,
// the quantization compute itself pipelines chunk-by-chunk.
func (q *QSGD) EncodeChunk(step int, grad []float64, bounds []int, c int) []byte {
	if len(grad) != q.n {
		panic(fmt.Sprintf("compress: QSGD.EncodeChunk length %d, want %d", len(grad), q.n))
	}
	m := len(bounds) - 1
	if c == 0 {
		reseed(q.rng, q.seed, step)
		q.chunkNorm = qsgdNorm(grad)
		q.encChunks = grownBytes(q.encChunks, qsgdPayloadLen(q.n)+8*(m-1))
		q.chunkViews = grownChunkBufs(q.chunkViews, m)
		off := 0
		for j := 0; j < m; j++ {
			l := qsgdPayloadLen(bounds[j+1] - bounds[j])
			q.chunkViews[j] = q.encChunks[off : off+l : off+l]
			off += l
		}
	}
	lo, hi := bounds[c], bounds[c+1]
	out := q.chunkViews[c]
	binary.LittleEndian.PutUint64(out, math.Float64bits(q.chunkNorm))
	if q.chunkNorm == 0 {
		clear(out[8:])
		return out
	}
	q.quantizeRange(out[8:], grad[lo:hi], float64(q.levels)/q.chunkNorm)
	return out
}

// DecodeChunk merges every rank's chunk-c codes into
// grad[bounds[c]:bounds[c+1]] through the same per-rank lookup tables as the
// unchunked decode (the chunk headers carry the same norms, so the tables —
// and the accumulated bits — are identical).
func (q *QSGD) DecodeChunk(_ int, blobs [][]byte, grad []float64, bounds []int, c int) error {
	if len(grad) != q.n {
		return fmt.Errorf("compress: QSGD.DecodeChunk length %d, want %d", len(grad), q.n)
	}
	p := len(blobs)
	if p == 0 {
		return fmt.Errorf("compress: QSGD.DecodeChunk got no payloads")
	}
	lo, hi := bounds[c], bounds[c+1]
	want := qsgdPayloadLen(hi - lo)
	inv := 1 / float64(p)
	s := float64(q.levels)
	q.luts = grownFloats(q.luts, p*256)
	for r, b := range blobs {
		if len(b) != want {
			return corruptf(r, "QSGD chunk %d payload has %d bytes, want %d", c, len(b), want)
		}
		norm := math.Float64frombits(binary.LittleEndian.Uint64(b))
		if err := checkHeaderFinite(norm, r, "QSGD norm"); err != nil {
			return err
		}
		if !qsgdValidCodes(b[8:], q.levels) {
			return corruptf(r, "QSGD code exceeds %d levels", q.levels)
		}
		f := norm / s * inv
		lut := q.luts[r*256 : (r+1)*256]
		for code := 0; code < 128; code++ {
			mag := float64(code) * f
			lut[code] = mag
			lut[code+128] = -mag
		}
	}
	luts := q.luts
	out := grad[lo:hi]
	n := hi - lo
	if shards := tensor.ShardCount(n, compressWork(n)); shards > 1 {
		tensor.RunShards(n, shards, func(_, slo, shi int) {
			qsgdAccumulate(luts, blobs, out, slo, shi)
		})
	} else {
		qsgdAccumulate(luts, blobs, out, 0, n)
	}
	return nil
}

// Decode averages every worker's dequantized vector into grad. Because each
// worker's quantization is unbiased, the average is an unbiased estimate of
// the mean gradient.
func (q *QSGD) Decode(_ int, blobs [][]byte, grad []float64) error {
	if len(grad) != q.n {
		return fmt.Errorf("compress: QSGD.Decode length %d, want %d", len(grad), q.n)
	}
	p := len(blobs)
	if p == 0 {
		return fmt.Errorf("compress: QSGD.Decode got no payloads")
	}
	want := qsgdPayloadLen(q.n)
	inv := 1 / float64(p)
	s := float64(q.levels)
	q.luts = grownFloats(q.luts, p*256)
	for r, b := range blobs {
		if len(b) != want {
			return corruptf(r, "QSGD payload has %d bytes, want %d", len(b), want)
		}
		norm := math.Float64frombits(binary.LittleEndian.Uint64(b))
		if err := checkHeaderFinite(norm, r, "QSGD norm"); err != nil {
			return err
		}
		if !qsgdValidCodes(b[8:], q.levels) {
			return corruptf(r, "QSGD code exceeds %d levels", q.levels)
		}
		f := norm / s * inv
		lut := q.luts[r*256 : (r+1)*256]
		for c := 0; c < 128; c++ {
			mag := float64(c) * f
			lut[c] = mag
			lut[c+128] = -mag
		}
	}
	luts := q.luts
	if shards := tensor.ShardCount(q.n, compressWork(q.n)); shards > 1 {
		tensor.RunShards(q.n, shards, func(_, lo, hi int) {
			qsgdAccumulate(luts, blobs, grad, lo, hi)
		})
	} else {
		qsgdAccumulate(luts, blobs, grad, 0, q.n)
	}
	return nil
}

// qsgdAccumulate sums every rank's dequantized codes for elements [lo, hi)
// through the per-rank lookup tables — one fused pass over all peers.
func qsgdAccumulate(luts []float64, blobs [][]byte, grad []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		var acc float64
		for r := range blobs {
			acc += luts[r*256+int(blobs[r][8+i])]
		}
		grad[i] = acc
	}
}

// TernGrad implements ternary quantization (Wen et al., paper [15]): each
// element becomes -1, 0 or +1 scaled by the vector's max magnitude, with
// P(±1) = |g_i| / max|g| — an unbiased estimator at 2 bits per element.
//
// Decode expands each packed byte (four 2-bit codes) through a static
// 256-entry table instead of shifting and branching per element, with the
// 1/p averaging folded into the per-rank scale.
type TernGrad struct {
	n    int
	seed int64 // RNG rebase key; see rng.go
	rng  randSource

	enc    []byte    // pooled payload buffer
	scales []float64 // per-rank decode scales (with 1/p folded in)
}

var _ GatherCompressor = (*TernGrad)(nil)

// NewTernGrad returns a TernGrad compressor for n elements.
func NewTernGrad(n int, tensorID int64) *TernGrad {
	return &TernGrad{n: n, seed: tensorID, rng: newStepRNG()}
}

// ternPayloadLen is 8 bytes of scale plus 2 bits per element.
func ternPayloadLen(n int) int { return 8 + (2*n+7)/8 }

// ternary codes: 0 = zero, 1 = +1, 2 = -1.
const (
	ternZero = 0
	ternPos  = 1
	ternNeg  = 2
)

// ternAccumulate merges every rank's code bytes [lo, hi) — four elements
// per byte — through the static ternary table in one fused pass: the four
// accumulators stay in registers across ranks and grad is written exactly
// once per element.
func ternAccumulate(grad []float64, blobs [][]byte, scales []float64, lo, hi int) {
	for bi := lo; bi < hi; bi++ {
		var a0, a1, a2, a3 float64
		for r, b := range blobs {
			c := b[8+bi]
			if c == 0 {
				continue
			}
			sc := scales[r]
			lut := &ternLUT[c]
			a0 += sc * float64(lut[0])
			a1 += sc * float64(lut[1])
			a2 += sc * float64(lut[2])
			a3 += sc * float64(lut[3])
		}
		base := bi * 4
		grad[base] = a0
		grad[base+1] = a1
		grad[base+2] = a2
		grad[base+3] = a3
	}
}

// ternLUT expands one packed byte into its four ternary code values.
var ternLUT = func() (t [256][4]int8) {
	for b := 0; b < 256; b++ {
		for j := 0; j < 4; j++ {
			switch (b >> uint(2*j)) & 3 {
			case ternPos:
				t[b][j] = 1
			case ternNeg:
				t[b][j] = -1
			}
		}
	}
	return
}()

// Encode ternarizes grad. The returned payload is owned by the compressor
// and valid until the next Encode call.
func (t *TernGrad) Encode(step int, grad []float64) []byte {
	if len(grad) != t.n {
		panic(fmt.Sprintf("compress: TernGrad.Encode length %d, want %d", len(grad), t.n))
	}
	reseed(t.rng, t.seed, step)
	var scale float64
	for _, v := range grad {
		if a := math.Abs(v); a > scale {
			scale = a
		}
	}
	t.enc = grownBytes(t.enc, ternPayloadLen(t.n))
	out := t.enc
	clear(out[8:])
	binary.LittleEndian.PutUint64(out, math.Float64bits(scale))
	if scale == 0 {
		return out
	}
	for i, v := range grad {
		code := byte(ternZero)
		if t.rng.Float64() < math.Abs(v)/scale {
			if v >= 0 {
				code = ternPos
			} else {
				code = ternNeg
			}
		}
		out[8+i/4] |= code << uint((i%4)*2)
	}
	return out
}

// Decode averages every worker's ternary vector into grad.
func (t *TernGrad) Decode(_ int, blobs [][]byte, grad []float64) error {
	if len(grad) != t.n {
		return fmt.Errorf("compress: TernGrad.Decode length %d, want %d", len(grad), t.n)
	}
	p := len(blobs)
	if p == 0 {
		return fmt.Errorf("compress: TernGrad.Decode got no payloads")
	}
	want := ternPayloadLen(t.n)
	inv := 1 / float64(p)
	t.scales = grownFloats(t.scales, p)
	for r, b := range blobs {
		if len(b) != want {
			return corruptf(r, "TernGrad payload has %d bytes, want %d", len(b), want)
		}
		scale := math.Float64frombits(binary.LittleEndian.Uint64(b))
		if err := checkHeaderFinite(scale, r, "TernGrad scale"); err != nil {
			return err
		}
		if !ternValidCodes(b[8:]) {
			return corruptf(r, "TernGrad payload contains the invalid ternary code 3")
		}
		t.scales[r] = scale * inv
	}
	scales := t.scales
	full := t.n / 4
	if shards := tensor.ShardCount(full, compressWork(t.n)); shards > 1 {
		tensor.RunShards(full, shards, func(_, lo, hi int) {
			ternAccumulate(grad, blobs, scales, lo, hi)
		})
	} else {
		ternAccumulate(grad, blobs, scales, 0, full)
	}
	for i := full * 4; i < t.n; i++ {
		var acc float64
		for r, b := range blobs {
			switch (b[8+i/4] >> uint((i%4)*2)) & 0x3 {
			case ternPos:
				acc += scales[r]
			case ternNeg:
				acc -= scales[r]
			}
		}
		grad[i] = acc
	}
	return nil
}

// qsgdDefaults is the single source of QSGD's default params.
var qsgdDefaults = Params{"levels": "16"}

// qsgdFactory registers QSGD stochastic quantization.
type qsgdFactory struct{}

func (qsgdFactory) Info() MethodInfo {
	return MethodInfo{
		Name:     "qsgd",
		Pattern:  PatternAllGather,
		Scope:    ScopeBuffer,
		Defaults: qsgdDefaults,
	}
}

func (qsgdFactory) Validate(spec Spec) error {
	levels, err := spec.Params.withDefaults(qsgdDefaults).Int("levels", 0)
	if err != nil {
		return err
	}
	if levels < 1 || levels > 127 {
		return fmt.Errorf("param levels=%d: want 1 <= levels <= 127", levels)
	}
	return nil
}

func (qsgdFactory) New(spec Spec, t Tensor) (any, error) {
	levels, err := spec.Params.withDefaults(qsgdDefaults).Int("levels", 0)
	if err != nil {
		return nil, err
	}
	return NewQSGD(t.Len(), levels, t.MixedSeed(1<<20)), nil
}

// WireRate reports QSGD's ~1/4 wire compression rate (one byte per fp32
// word plus the norm header).
func (qsgdFactory) WireRate(_ Spec, n int) float64 {
	if n <= 0 {
		return 1
	}
	return float64(qsgdPayloadLen(n)) / float64(WireBytesF32*n)
}

// terngradFactory registers TernGrad ternary quantization.
type terngradFactory struct{}

func (terngradFactory) Info() MethodInfo {
	return MethodInfo{
		Name:    "terngrad",
		Aliases: []string{"tern"},
		Pattern: PatternAllGather,
		Scope:   ScopeBuffer,
	}
}

func (terngradFactory) Validate(Spec) error { return nil }

func (terngradFactory) New(_ Spec, t Tensor) (any, error) {
	return NewTernGrad(t.Len(), t.MixedSeed(1<<20)), nil
}

// WireRate reports TernGrad's ~1/16 wire compression rate (2 bits per fp32
// word plus the scale header).
func (terngradFactory) WireRate(_ Spec, n int) float64 {
	if n <= 0 {
		return 1
	}
	return float64(ternPayloadLen(n)) / float64(WireBytesF32*n)
}

func init() {
	Register(qsgdFactory{})
	Register(terngradFactory{})
}
