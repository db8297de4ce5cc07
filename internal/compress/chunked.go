package compress

import "fmt"

// This file defines the chunked-encode extension of the gather compressors —
// the compressor half of intra-buffer chunk pipelining (the paper's third
// system optimization, §III-B). Instead of encoding a sealed fusion buffer
// in full before the first byte ships, a ChunkedGatherCompressor encodes the
// buffer chunk-by-chunk into per-chunk pooled payloads (chunk i's collective
// launches while chunk i+1 is still being encoded) and decodes gathered
// chunks incrementally through the same fused multi-peer kernels (chunk i
// decodes while chunk i+1 is still on the wire).
//
// The contract is strict so the trainer can promise bit-identical models at
// any chunk count: encoding every chunk of a step and decoding every chunk
// of the gathered results must produce exactly the gradient (and exactly the
// compressor-state updates — error feedback, RNG stream, accumulators) of
// the unchunked Encode/Decode pair. Methods achieve this by hoisting their
// whole-buffer work (EF fold, threshold selection, norm/scale reduction)
// into the first EncodeChunk call and doing only per-chunk work afterwards.

// ChunkedGatherCompressor is the optional chunked extension of
// GatherCompressor. Within one step, EncodeChunk must be called with
// c = 0..m-1 in order over the same bounds, and DecodeChunk likewise (the
// per-rank blob slice of DecodeChunk call c holds every rank's chunk-c
// payload). Chunk payloads are owned by the compressor and stay valid until
// the next step's EncodeChunk(…, 0) — each chunk gets its own pooled buffer
// so an async collective may consume chunk i after chunk i+1 was encoded.
type ChunkedGatherCompressor interface {
	GatherCompressor
	// ChunkBounds returns the m+1 element offsets partitioning the tensor
	// into m pipeline chunks (method-specific alignment; equal across ranks).
	ChunkBounds(m int) []int
	// EncodeChunk encodes elements [bounds[c], bounds[c+1]) for this step.
	EncodeChunk(step int, grad []float64, bounds []int, c int) []byte
	// DecodeChunk merges every rank's chunk-c payload into grad (native
	// implementations write only [bounds[c], bounds[c+1]); the fallback
	// wrapper writes the whole gradient on the final chunk).
	DecodeChunk(step int, blobs [][]byte, grad []float64, bounds []int, c int) error
}

// ChunkBounds partitions n elements into m chunks of near-equal size whose
// interior boundaries are multiples of align (the last chunk absorbs the
// ragged tail). Chunks may be empty when n < m*align. align <= 1 means no
// alignment constraint.
func ChunkBounds(n, m, align int) []int {
	if m < 1 {
		m = 1
	}
	bounds := make([]int, m+1)
	prev := 0
	for j := 1; j < m; j++ {
		b := j * n / m
		if align > 1 {
			b = b / align * align
		}
		if b < prev {
			b = prev
		}
		if b > n {
			b = n
		}
		bounds[j] = b
		prev = b
	}
	bounds[m] = n
	return bounds
}

// Chunked adapts any GatherCompressor to the chunked contract. Compressors
// with native support (every registered gather method: Sign, Top-k, DGC) are
// returned as-is. Anything else, such as a wrapper that forwards only the
// unchunked pair, is wrapped in a fallback that splits the unchunked payload
// into byte ranges: the wire still pipelines chunk-by-chunk, the compute
// does not, and results stay bit-identical to the unchunked path. n is the
// tensor length the compressor was built for (the fallback needs it only for
// ChunkBounds).
func Chunked(comp GatherCompressor, n int) ChunkedGatherCompressor {
	if cc, ok := comp.(ChunkedGatherCompressor); ok {
		return cc
	}
	return &chunkedFallback{inner: comp, n: n}
}

// chunkedFallback gives chunk pipelining to compressors without native
// support: EncodeChunk(0) runs the full unchunked Encode and serves byte
// ranges of the payload as chunks; DecodeChunk reassembles every rank's
// ranges and runs the full unchunked Decode on the final chunk. Only the
// wire time pipelines — encode happens up front and decode at the end — but
// bit-identity with the unchunked path holds trivially.
type chunkedFallback struct {
	inner GatherCompressor
	n     int

	blob       []byte   // the inner compressor's pooled payload (view)
	byteBounds []int    // current step's byte split of blob
	asm        [][]byte // per-rank reassembly buffers, reused across steps
}

var _ ChunkedGatherCompressor = (*chunkedFallback)(nil)

func (f *chunkedFallback) Encode(step int, grad []float64) []byte {
	return f.inner.Encode(step, grad)
}

func (f *chunkedFallback) Decode(step int, blobs [][]byte, grad []float64) error {
	return f.inner.Decode(step, blobs, grad)
}

func (f *chunkedFallback) ChunkBounds(m int) []int { return ChunkBounds(f.n, m, 1) }

func (f *chunkedFallback) EncodeChunk(step int, grad []float64, bounds []int, c int) []byte {
	m := len(bounds) - 1
	if c == 0 {
		//acpvet:ignore adapter serves chunk views of the inner payload only until its next Encode, inside the payload's validity window
		f.blob = f.inner.Encode(step, grad)
		f.byteBounds = ChunkBounds(len(f.blob), m, 1)
	}
	return f.blob[f.byteBounds[c]:f.byteBounds[c+1]]
}

func (f *chunkedFallback) DecodeChunk(step int, blobs [][]byte, grad []float64, bounds []int, c int) error {
	m := len(bounds) - 1
	if c == 0 {
		f.asm = grownChunkBufs(f.asm, len(blobs))
		for r := range f.asm {
			f.asm[r] = f.asm[r][:0]
		}
	}
	if len(blobs) != len(f.asm) {
		return fmt.Errorf("compress: chunked decode rank count changed mid-step: %d vs %d", len(blobs), len(f.asm))
	}
	for r, b := range blobs {
		f.asm[r] = append(f.asm[r], b...)
	}
	if c < m-1 {
		return nil
	}
	return f.inner.Decode(step, f.asm, grad)
}
