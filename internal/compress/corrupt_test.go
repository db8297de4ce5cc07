package compress

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// gatherSpecs returns one workable spec per registered all-gather method —
// the methods whose Decode takes every rank's opaque payload and therefore
// carries the structural-validation duty. Sparse ratios are raised so tiny
// test tensors still select a nonzero k.
func gatherSpecs(t testing.TB) []Spec {
	t.Helper()
	var specs []Spec
	for _, name := range Names() {
		fac, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if fac.Info().Pattern != PatternAllGather {
			continue
		}
		s := name
		if _, ok := fac.Info().Defaults["ratio"]; ok {
			s += ":ratio=0.25"
		}
		specs = append(specs, MustSpec(s))
	}
	if len(specs) < 3 {
		t.Fatalf("expected the gather methods (sign/topk/dgc), found %d", len(specs))
	}
	return specs
}

// newGather builds one rank's compressor for a spec.
func newGather(t testing.TB, spec Spec, n, rank int) GatherCompressor {
	t.Helper()
	fac, canon, err := Resolve(spec)
	if err != nil {
		t.Fatal(err)
	}
	c, err := fac.New(canon, Tensor{Rows: n, Cols: 1, ID: 3, WorkerRank: rank})
	if err != nil {
		t.Fatal(err)
	}
	g, ok := c.(GatherCompressor)
	if !ok {
		t.Fatalf("%s did not build a GatherCompressor", spec.Name)
	}
	return g
}

// encodeRanks produces per-rank payload copies of deterministic gradients.
func encodeRanks(t testing.TB, spec Spec, n, p int) [][]byte {
	t.Helper()
	blobs := make([][]byte, p)
	for r := 0; r < p; r++ {
		rng := rand.New(rand.NewSource(int64(100 + r)))
		grad := make([]float64, n)
		for i := range grad {
			grad[i] = rng.NormFloat64()
		}
		blobs[r] = append([]byte(nil), newGather(t, spec, n, r).Encode(0, grad)...)
	}
	return blobs
}

// TestDecodeBlamesNonFiniteHeader poisons the scale/norm header of one
// rank's payload with NaN for every header-carrying gather method: Decode
// must fail with a *CorruptError naming exactly that rank, instead of
// letting one NaN header multiply into every element of the aggregate.
func TestDecodeBlamesNonFiniteHeader(t *testing.T) {
	const n, p, victim = 64, 3, 1
	for _, spec := range gatherSpecs(t) {
		if spec.Name == "topk" || spec.Name == "dgc" {
			continue // sparse payloads carry no global header word
		}
		t.Run(spec.Name, func(t *testing.T) {
			blobs := encodeRanks(t, spec, n, p)
			binary.LittleEndian.PutUint64(blobs[victim], math.Float64bits(math.NaN()))
			dec := newGather(t, spec, n, p)
			out := make([]float64, n)
			err := dec.Decode(0, blobs, out)
			var ce *CorruptError
			if !errors.As(err, &ce) || ce.Rank != victim {
				t.Fatalf("NaN header surfaced as %v, want *CorruptError{Rank: %d}", err, victim)
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatal("CorruptError does not unwrap to ErrCorrupt")
			}
		})
	}
}

// TestDecodeBlamesStructuralDamage applies method-specific structural
// corruption — wrong lengths, out-of-range sparse indices, non-finite
// sparse values — and asserts each is rejected with the offending rank
// named.
func TestDecodeBlamesStructuralDamage(t *testing.T) {
	const n, p, victim = 64, 3, 2
	for _, spec := range gatherSpecs(t) {
		t.Run(spec.Name+"/truncated", func(t *testing.T) {
			blobs := encodeRanks(t, spec, n, p)
			blobs[victim] = blobs[victim][:len(blobs[victim])-1]
			err := newGather(t, spec, n, p).Decode(0, blobs, make([]float64, n))
			var ce *CorruptError
			if !errors.As(err, &ce) || ce.Rank != victim {
				t.Fatalf("truncated payload surfaced as %v, want *CorruptError{Rank: %d}", err, victim)
			}
		})
	}

	sparse := MustSpec("topk:ratio=0.25")
	t.Run("topk/index-out-of-range", func(t *testing.T) {
		blobs := encodeRanks(t, sparse, n, p)
		binary.LittleEndian.PutUint32(blobs[victim], uint32(n+7))
		err := newGather(t, sparse, n, p).Decode(0, blobs, make([]float64, n))
		var ce *CorruptError
		if !errors.As(err, &ce) || ce.Rank != victim {
			t.Fatalf("wild index surfaced as %v, want *CorruptError{Rank: %d}", err, victim)
		}
	})
	t.Run("topk/non-finite-value", func(t *testing.T) {
		blobs := encodeRanks(t, sparse, n, p)
		binary.LittleEndian.PutUint64(blobs[victim][4:], math.Float64bits(math.Inf(1)))
		err := newGather(t, sparse, n, p).Decode(0, blobs, make([]float64, n))
		var ce *CorruptError
		if !errors.As(err, &ce) || ce.Rank != victim {
			t.Fatalf("Inf value surfaced as %v, want *CorruptError{Rank: %d}", err, victim)
		}
	})
}

// TestDecodeChunkValidatesPerChunk runs the same defenses through the
// pipelined per-chunk decode path: a poisoned chunk header and a sparse
// index outside the chunk's range must both blame the sender.
func TestDecodeChunkValidatesPerChunk(t *testing.T) {
	const n, p, victim, chunks = 128, 3, 0, 4
	t.Run("sign/nan-header", func(t *testing.T) {
		spec := MustSpec("sign")
		encs := make([]*Sign, p)
		bounds := NewSign(n, true).ChunkBounds(chunks)
		chunkBlobs := make([][][]byte, chunks)
		for r := 0; r < p; r++ {
			encs[r] = NewSign(n, true)
			rng := rand.New(rand.NewSource(int64(100 + r)))
			grad := make([]float64, n)
			for i := range grad {
				grad[i] = rng.NormFloat64()
			}
			for c := 0; c < chunks; c++ {
				blob := append([]byte(nil), encs[r].EncodeChunk(0, grad, bounds, c)...)
				chunkBlobs[c] = append(chunkBlobs[c], blob)
			}
		}
		binary.LittleEndian.PutUint64(chunkBlobs[2][victim], math.Float64bits(math.Inf(-1)))
		dec := NewSign(n, true)
		out := make([]float64, n)
		for c := 0; c < chunks; c++ {
			err := dec.DecodeChunk(0, chunkBlobs[c], out, bounds, c)
			if c == 2 {
				var ce *CorruptError
				if !errors.As(err, &ce) || ce.Rank != victim {
					t.Fatalf("chunk 2 Inf header surfaced as %v, want *CorruptError{Rank: %d}", err, victim)
				}
			} else if err != nil {
				t.Fatalf("clean chunk %d rejected: %v", c, err)
			}
		}
		_ = spec
	})
	t.Run("topk/index-outside-chunk", func(t *testing.T) {
		tk := NewTopK(n, 16, SelectExact, true, 1)
		rng := rand.New(rand.NewSource(7))
		grad := make([]float64, n)
		for i := range grad {
			grad[i] = rng.NormFloat64()
		}
		bounds := tk.ChunkBounds(chunks)
		tk.EncodeChunk(0, grad, bounds, 0) // chunk-0 pre-pass owns the whole encode
		blob := append([]byte(nil), tk.EncodeChunk(0, grad, bounds, 1)...)
		// Point the first pair at an element of chunk 0 instead of chunk 1.
		binary.LittleEndian.PutUint32(blob, 0)
		dec := NewTopK(n, 16, SelectExact, true, 1)
		err := dec.DecodeChunk(0, [][]byte{blob}, make([]float64, n), bounds, 1)
		var ce *CorruptError
		if !errors.As(err, &ce) || ce.Rank != 0 {
			t.Fatalf("cross-chunk index surfaced as %v, want *CorruptError{Rank: 0}", err)
		}
	})
}

// FuzzDecodeCorrupt feeds bit-flipped encodings of every registered gather
// method through Decode: whatever the flip does, Decode must either reject
// the payload with an error or produce finite-structured output — never
// panic, never index outside the gradient. A second probe feeds the raw
// fuzz bytes directly as one rank's payload.
func FuzzDecodeCorrupt(f *testing.F) {
	f.Add(uint16(0), byte(0x01), []byte{})
	f.Add(uint16(9), byte(0x80), []byte{1, 2, 3})
	f.Add(uint16(40), byte(0xff), make([]byte, 24))
	f.Fuzz(func(t *testing.T, pos uint16, mask byte, raw []byte) {
		const n, p = 96, 2
		if mask == 0 {
			mask = 1
		}
		for _, spec := range gatherSpecs(t) {
			blobs := encodeRanks(t, spec, n, p)
			evil := blobs[1]
			evil[int(pos)%len(evil)] ^= mask
			dec := newGather(t, spec, n, p)
			out := make([]float64, n)
			if err := dec.Decode(0, blobs, out); err != nil {
				var ce *CorruptError
				if !errors.As(err, &ce) {
					t.Fatalf("%s: flip rejected with a non-attributable error: %v", spec.Name, err)
				}
				if ce.Rank != 1 {
					t.Fatalf("%s: flip in rank 1's payload blamed rank %d", spec.Name, ce.Rank)
				}
			}

			// Arbitrary bytes in place of a payload must fail cleanly too
			// (or decode, for formats where any length-matched body is
			// structurally valid).
			blobs2 := encodeRanks(t, spec, n, p)
			blobs2[0] = append([]byte(nil), raw...)
			_ = newGather(t, spec, n, p).Decode(0, blobs2, out)
		}
	})
}
