package compress

import (
	"encoding/binary"
	"fmt"
	"math"

	"acpsgd/internal/tensor"
)

// Sign implements Sign-SGD with majority vote (Bernstein et al., paper
// [17]) and error feedback (Karimireddy et al., paper [30,42]): each worker
// transmits one bit per gradient element (the sign of gradient+error) plus a
// single scale (mean |g|); workers all-gather the bit vectors and take the
// element-wise majority. The 1-bit payload is the paper's 32x compression
// ratio; the all-gather pattern is what makes its communication complexity
// linear in the worker count (Table II).
//
// Both kernels are word-parallel: Encode packs 64 sign bits per uint64 store
// (with the error-feedback residual update fused into the same sweep, so the
// EF path is two passes total), and Decode tallies all ranks' votes with
// bit-sliced word-wide counters instead of a per-bit loop. Large tensors
// shard across the tensor worker pool. Encode writes into a buffer the
// compressor owns and re-leases each call (see the pooled payload ownership
// rules in kernels.go).
type Sign struct {
	n     int
	err   []float64 // error-feedback memory (doubles as the adjusted vector)
	useEF bool

	enc      []byte    // pooled payload buffer
	partials []float64 // per-shard |.| partial sums

	encChunks  []byte   // chunked-encode payload arena
	chunkViews [][]byte // per-chunk payload views into encChunks
	chunkScale float64  // scale computed by the chunk-0 pre-pass
}

var _ GatherCompressor = (*Sign)(nil)
var _ ChunkedGatherCompressor = (*Sign)(nil)

// NewSign returns a Sign-SGD compressor for a tensor of n elements.
// Error feedback is enabled by default (disabling it is only useful for
// ablations).
func NewSign(n int, useEF bool) *Sign {
	return &Sign{
		n:     n,
		err:   make([]float64, n),
		useEF: useEF,
	}
}

// signPayloadLen returns the encoded byte length for n elements: 8 bytes of
// scale followed by ceil(n/8) sign bits.
func signPayloadLen(n int) int { return 8 + (n+7)/8 }

// Encode packs sign bits of grad+err and the scale mean|grad+err|. The local
// error memory is updated against the locally compressed value (EF-SignSGD).
// The returned payload is owned by the compressor and valid until the next
// Encode call.
func (s *Sign) Encode(_ int, grad []float64) []byte {
	if len(grad) != s.n {
		panic(fmt.Sprintf("compress: Sign.Encode length %d, want %d", len(grad), s.n))
	}
	scale := s.adjustScale(grad)
	s.enc = grownBytes(s.enc, signPayloadLen(s.n))
	out := s.enc
	binary.LittleEndian.PutUint64(out, math.Float64bits(scale))
	s.packRange(out[8:], grad, scale, 0, s.n)
	return out
}

// adjustScale runs encode pass 1: fold the gradient into the error memory
// (EF) and reduce mean |adjusted|, sharded with per-shard partial sums. Both
// the unchunked Encode and the chunk-0 pre-pass of EncodeChunk run exactly
// this code, which is what keeps the two paths' scales (and therefore every
// downstream bit) identical.
func (s *Sign) adjustScale(grad []float64) float64 {
	n := s.n
	var sumAbs float64
	if shards := tensor.ShardCount(n, compressWork(n)); shards > 1 {
		s.partials = grownFloats(s.partials, shards)
		partials := s.partials
		err, useEF := s.err, s.useEF
		tensor.RunShards(n, shards, func(sh, lo, hi int) {
			partials[sh] = signAdjustAbs(err, grad, useEF, lo, hi)
		})
		for _, v := range partials[:shards] {
			sumAbs += v
		}
	} else {
		sumAbs = signAdjustAbs(s.err, grad, s.useEF, 0, n)
	}
	if n == 0 {
		return 0
	}
	return sumAbs / float64(n)
}

// packRange runs encode pass 2 over elements [lo, hi) (lo a multiple of 64):
// the word-parallel bit pack with the EF residual update fused in, writing
// into bitBytes whose bit 0 is element lo.
func (s *Sign) packRange(bitBytes []byte, grad []float64, scale float64, lo, hi int) {
	src := grad
	if s.useEF {
		src = s.err
	}
	src = src[lo:hi]
	n := hi - lo
	words := n / signWordElems
	if shards := tensor.ShardCount(words, compressWork(n)); shards > 1 {
		useEF := s.useEF
		tensor.RunShards(words, shards, func(_, wlo, whi int) {
			packSignWords(bitBytes, src, scale, useEF, wlo, whi)
		})
	} else {
		packSignWords(bitBytes, src, scale, s.useEF, 0, words)
	}
	packSignTail(bitBytes, src, scale, s.useEF, words*signWordElems, n)
}

// Decode takes every worker's payload and writes the majority-vote gradient
// into grad: sign = majority of sign bits, magnitude = mean of the workers'
// scales. Ties (possible with an even worker count) go to +1, matching the
// >= 0 encoding convention. The vote tally runs word-parallel over all
// ranks' payloads in one fused pass (see voteSignWords).
func (s *Sign) Decode(_ int, blobs [][]byte, grad []float64) error {
	if len(grad) != s.n {
		return fmt.Errorf("compress: Sign.Decode length %d, want %d", len(grad), s.n)
	}
	p := len(blobs)
	if p == 0 {
		return fmt.Errorf("compress: Sign.Decode got no payloads")
	}
	want := signPayloadLen(s.n)
	var meanScale float64
	for r, b := range blobs {
		if len(b) != want {
			return corruptf(r, "Sign payload has %d bytes, want %d", len(b), want)
		}
		scale := math.Float64frombits(binary.LittleEndian.Uint64(b))
		if err := checkHeaderFinite(scale, r, "Sign scale"); err != nil {
			return err
		}
		meanScale += scale
	}
	meanScale /= float64(p)
	// Majority threshold: 2*votes >= p <=> votes >= ceil(p/2).
	T := (p + 1) / 2
	voteRange(blobs, grad, meanScale, T)
	return nil
}

// voteRange tallies the majority vote of blobs' bit payloads (bit 0 =
// out[0]) into out: the word-parallel kernel above the bit-sliced counter
// width, the scalar tally beyond it and for the ragged tail.
func voteRange(blobs [][]byte, out []float64, meanScale float64, T int) {
	n := len(out)
	if len(blobs) > 255 {
		// Beyond the bit-sliced counter width; groups this large do not occur
		// in practice but the scalar tally keeps the contract total.
		voteSignTail(blobs, out, meanScale, T, 0, n)
		return
	}
	words := n / signWordElems
	if shards := tensor.ShardCount(words, compressWork(n)); shards > 1 {
		tensor.RunShards(words, shards, func(_, lo, hi int) {
			voteSignWords(blobs, out, meanScale, T, lo, hi)
		})
	} else {
		voteSignWords(blobs, out, meanScale, T, 0, words)
	}
	voteSignTail(blobs, out, meanScale, T, words*signWordElems, n)
}

// ChunkBounds aligns chunk boundaries to the 64-element sign words so every
// chunk's bit payload is a whole number of packed words.
func (s *Sign) ChunkBounds(m int) []int { return ChunkBounds(s.n, m, signWordElems) }

// EncodeChunk encodes elements [bounds[c], bounds[c+1]). The chunk-0 call
// runs the whole-buffer pre-pass (EF fold + scale reduction — exactly
// Encode's pass 1) and carves the per-chunk payload arena; every chunk's
// payload carries the shared scale header plus its own bit words, so chunks
// decode independently. Chunk payloads stay valid until the next step's
// chunk-0 call.
func (s *Sign) EncodeChunk(_ int, grad []float64, bounds []int, c int) []byte {
	if len(grad) != s.n {
		panic(fmt.Sprintf("compress: Sign.EncodeChunk length %d, want %d", len(grad), s.n))
	}
	m := len(bounds) - 1
	if c == 0 {
		s.chunkScale = s.adjustScale(grad)
		total := 0
		for j := 0; j < m; j++ {
			total += signPayloadLen(bounds[j+1] - bounds[j])
		}
		s.encChunks = grownBytes(s.encChunks, total)
		s.chunkViews = grownChunkBufs(s.chunkViews, m)
		off := 0
		for j := 0; j < m; j++ {
			l := signPayloadLen(bounds[j+1] - bounds[j])
			s.chunkViews[j] = s.encChunks[off : off+l : off+l]
			off += l
		}
	}
	out := s.chunkViews[c]
	binary.LittleEndian.PutUint64(out, math.Float64bits(s.chunkScale))
	s.packRange(out[8:], grad, s.chunkScale, bounds[c], bounds[c+1])
	return out
}

// DecodeChunk merges every rank's chunk-c payload into grad[bounds[c]:
// bounds[c+1]] — the same majority-vote kernel over the chunk's words, with
// the mean scale recomputed from the chunk headers (every chunk carries the
// same per-rank scales, so the result is bit-identical to the unchunked
// Decode).
func (s *Sign) DecodeChunk(_ int, blobs [][]byte, grad []float64, bounds []int, c int) error {
	if len(grad) != s.n {
		return fmt.Errorf("compress: Sign.DecodeChunk length %d, want %d", len(grad), s.n)
	}
	lo, hi := bounds[c], bounds[c+1]
	p := len(blobs)
	if p == 0 {
		return fmt.Errorf("compress: Sign.DecodeChunk got no payloads")
	}
	want := signPayloadLen(hi - lo)
	var meanScale float64
	for r, b := range blobs {
		if len(b) != want {
			return corruptf(r, "Sign chunk %d payload has %d bytes, want %d", c, len(b), want)
		}
		scale := math.Float64frombits(binary.LittleEndian.Uint64(b))
		if err := checkHeaderFinite(scale, r, "Sign scale"); err != nil {
			return err
		}
		meanScale += scale
	}
	meanScale /= float64(p)
	voteRange(blobs, grad[lo:hi], meanScale, (p+1)/2)
	return nil
}

// ErrorNorm returns the L2 norm of the error-feedback memory (diagnostics).
func (s *Sign) ErrorNorm() float64 {
	var sum float64
	for _, v := range s.err {
		sum += v * v
	}
	return math.Sqrt(sum)
}

// signDefaults is the single source of Sign-SGD's default params.
var signDefaults = Params{"ef": "true"}

// signFactory registers Sign-SGD with majority vote.
type signFactory struct{}

func (signFactory) Info() MethodInfo {
	return MethodInfo{
		Name:     "sign",
		Aliases:  []string{"signsgd", "sign-sgd"},
		Pattern:  PatternAllGather,
		Scope:    ScopeBuffer,
		Defaults: signDefaults,
	}
}

func (signFactory) Validate(spec Spec) error {
	_, err := spec.Params.withDefaults(signDefaults).Bool("ef", true)
	return err
}

func (signFactory) New(spec Spec, t Tensor) (any, error) {
	ef, err := spec.Params.withDefaults(signDefaults).Bool("ef", true)
	if err != nil {
		return nil, err
	}
	return NewSign(t.Len(), ef), nil
}

// WireRate reports Sign-SGD's ~1/32 wire compression rate (8 scale bytes
// plus one bit per element, over 4-byte fp32 wire words).
func (signFactory) WireRate(_ Spec, n int) float64 {
	if n <= 0 {
		return 1
	}
	return float64(signPayloadLen(n)) / float64(WireBytesF32*n)
}

func init() { Register(signFactory{}) }
