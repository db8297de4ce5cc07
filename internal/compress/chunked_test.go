package compress

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// gatherMethodsUnderTest returns one spec per registered all-gather method,
// with ratios raised so small test tensors still select several coordinates.
func gatherMethodsUnderTest(t *testing.T) []Spec {
	t.Helper()
	var specs []Spec
	for _, info := range Methods() {
		if info.Pattern != PatternAllGather {
			continue
		}
		spec := Spec{Name: info.Name}
		if _, ok := info.Defaults["ratio"]; ok {
			spec.Params = Params{"ratio": "0.05"}
		}
		specs = append(specs, spec)
	}
	if len(specs) == 0 {
		t.Fatal("no all-gather methods registered")
	}
	return specs
}

// buildGatherComp constructs one rank's compressor for a spec.
func buildGatherComp(t *testing.T, spec Spec, n, rank int) GatherCompressor {
	t.Helper()
	fac, resolved, err := Resolve(spec)
	if err != nil {
		t.Fatal(err)
	}
	st, err := fac.New(resolved, Tensor{Rows: n, Cols: 1, ID: 3, WorkerRank: rank})
	if err != nil {
		t.Fatal(err)
	}
	comp, ok := st.(GatherCompressor)
	if !ok {
		t.Fatalf("%s built %T, not a GatherCompressor", spec.Name, st)
	}
	return comp
}

// randGrads returns p per-rank gradients for one step.
func randGrads(rng *rand.Rand, p, n int) [][]float64 {
	out := make([][]float64, p)
	for r := range out {
		out[r] = make([]float64, n)
		for i := range out[r] {
			out[r][i] = rng.NormFloat64()
		}
	}
	return out
}

// hideChunks hides a compressor's native chunk methods, so Chunked wraps it
// in the byte-range fallback: no registered method reaches that path.
type hideChunks struct{ GatherCompressor }

// TestChunkedMatchesUnchunked: for every registered all-gather method, and
// for the byte-range fallback over Sign and Top-k, the chunked encode/decode
// pipeline must evolve compressor state and produce decoded gradients
// bit-identical to the unchunked pair, across several steps (so EF memories,
// accumulators and RNG streams are compared too, not just a single
// stateless pass) and several chunk counts — including chunk counts that
// leave chunks empty.
func TestChunkedMatchesUnchunked(t *testing.T) {
	const p, n, steps = 3, 517, 4
	type subject struct {
		name string
		spec Spec
		hide bool // run Chunked's fallback instead of the native chunk path
	}
	var subjects []subject
	for _, spec := range gatherMethodsUnderTest(t) {
		subjects = append(subjects, subject{spec.Name, spec, false})
	}
	subjects = append(subjects,
		subject{"hideChunks(sign)", MustSpec("sign"), true},
		subject{"hideChunks(topk)", MustSpec("topk:ratio=0.05"), true})
	for _, sub := range subjects {
		spec := sub.spec
		for _, m := range []int{1, 2, 5, 700} {
			t.Run(fmt.Sprintf("%s/m=%d", sub.name, m), func(t *testing.T) {
				full := make([]GatherCompressor, p+1)
				chunked := make([]ChunkedGatherCompressor, p+1)
				for r := 0; r <= p; r++ {
					full[r] = buildGatherComp(t, spec, n, r%p)
					comp := buildGatherComp(t, spec, n, r%p)
					if sub.hide {
						comp = hideChunks{comp}
					}
					chunked[r] = Chunked(comp, n)
					if _, fallback := chunked[r].(*chunkedFallback); fallback != sub.hide {
						t.Fatalf("Chunked built %T", chunked[r])
					}
				}
				bounds := chunked[0].ChunkBounds(m)
				if bounds[0] != 0 || bounds[len(bounds)-1] != n || len(bounds) != m+1 {
					t.Fatalf("bad bounds %v", bounds)
				}
				rng := rand.New(rand.NewSource(11))
				for step := 0; step < steps; step++ {
					grads := randGrads(rng, p, n)

					// Unchunked reference.
					fullBlobs := make([][]byte, p)
					for r := 0; r < p; r++ {
						fullBlobs[r] = append([]byte(nil), full[r].Encode(step, grads[r])...)
					}
					wantGrad := make([]float64, n)
					if err := full[p].Decode(step, fullBlobs, wantGrad); err != nil {
						t.Fatal(err)
					}

					// Chunked pipeline: encode chunk-by-chunk per rank, decode
					// chunk-by-chunk on the consumer.
					chunkBlobs := make([][][]byte, m) // [chunk][rank]
					for c := 0; c < m; c++ {
						chunkBlobs[c] = make([][]byte, p)
					}
					totalBytes := make([]int, p)
					for r := 0; r < p; r++ {
						gradCopy := append([]float64(nil), grads[r]...)
						for c := 0; c < m; c++ {
							blob := chunked[r].EncodeChunk(step, gradCopy, bounds, c)
							chunkBlobs[c][r] = append([]byte(nil), blob...)
							totalBytes[r] += len(blob)
						}
						// Scale/norm-bearing formats repeat their 8-byte header
						// per chunk; everything else must match exactly.
						if totalBytes[r] != len(fullBlobs[r]) && totalBytes[r] != len(fullBlobs[r])+8*(m-1) {
							t.Fatalf("rank %d: chunked payload %dB, unchunked %dB (m=%d)", r, totalBytes[r], len(fullBlobs[r]), m)
						}
					}
					gotGrad := make([]float64, n)
					for c := 0; c < m; c++ {
						if err := chunked[p].DecodeChunk(step, chunkBlobs[c], gotGrad, bounds, c); err != nil {
							t.Fatal(err)
						}
					}
					for i := range wantGrad {
						if math.Float64bits(gotGrad[i]) != math.Float64bits(wantGrad[i]) {
							t.Fatalf("%s m=%d step %d elem %d: chunked %x, unchunked %x",
								sub.name, m, step, i, math.Float64bits(gotGrad[i]), math.Float64bits(wantGrad[i]))
						}
					}
				}
			})
		}
	}
}

// TestChunkedNativeCoverage pins which methods carry native chunked support:
// losing one to a refactor would silently fall back to wire-only pipelining.
func TestChunkedNativeCoverage(t *testing.T) {
	native := map[string]bool{"sign": true, "topk": true, "dgc": true}
	for _, spec := range gatherMethodsUnderTest(t) {
		comp := buildGatherComp(t, spec, 256, 0)
		_, isNative := comp.(ChunkedGatherCompressor)
		if isNative != native[spec.Name] {
			t.Errorf("%s: native chunked support = %v, want %v", spec.Name, isNative, native[spec.Name])
		}
		// Chunked must always yield a chunk-capable view either way.
		if cc := Chunked(comp, 256); cc == nil {
			t.Errorf("%s: Chunked returned nil", spec.Name)
		}
	}
}

// TestChunkBounds: partition invariants across sizes, chunk counts and
// alignments.
func TestChunkBounds(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 1000, 1 << 16} {
		for _, m := range []int{1, 2, 7, 64, 1000} {
			for _, align := range []int{1, 64} {
				bounds := ChunkBounds(n, m, align)
				if len(bounds) != m+1 || bounds[0] != 0 || bounds[m] != n {
					t.Fatalf("n=%d m=%d align=%d: bad bounds ends %v", n, m, align, bounds)
				}
				for j := 0; j < m; j++ {
					if bounds[j+1] < bounds[j] {
						t.Fatalf("n=%d m=%d align=%d: decreasing bounds %v", n, m, align, bounds)
					}
					if align > 1 && j > 0 && bounds[j] != n && bounds[j]%align != 0 {
						t.Fatalf("n=%d m=%d align=%d: interior bound %d unaligned", n, m, align, bounds[j])
					}
				}
			}
		}
	}
}
