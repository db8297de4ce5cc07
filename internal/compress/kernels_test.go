package compress

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"sync"
	"testing"

	"acpsgd/internal/tensor"
)

// Golden scalar references for every rewritten kernel: the pre-optimization
// per-bit / per-element algorithms, kept here as executable specifications.
// The optimized kernels must agree bit-for-bit in serial mode; the forced-
// parallel runs may differ only in floating-point reduction order (scale
// sums), bounded at 1e-12 relative.

// refSignEncode is the scalar Sign encode: per-bit byte packing over
// grad+err with the EF update as a separate pass.
func refSignEncode(n int, useEF bool, err, grad []float64) []byte {
	adj := make([]float64, n)
	if useEF {
		for i, g := range grad {
			adj[i] = g + err[i]
		}
	} else {
		copy(adj, grad)
	}
	var sumAbs float64
	for _, v := range adj {
		sumAbs += math.Abs(v)
	}
	scale := 0.0
	if n > 0 {
		scale = sumAbs / float64(n)
	}
	out := make([]byte, signPayloadLen(n))
	binary.LittleEndian.PutUint64(out, math.Float64bits(scale))
	bits := out[8:]
	for i, v := range adj {
		if v >= 0 {
			bits[i/8] |= 1 << (i % 8)
		}
	}
	if useEF {
		for i, v := range adj {
			c := scale
			if v < 0 {
				c = -scale
			}
			err[i] = v - c
		}
	}
	return out
}

// refSignDecode is the scalar per-bit majority tally.
func refSignDecode(n int, blobs [][]byte, grad []float64) {
	p := len(blobs)
	var meanScale float64
	for _, b := range blobs {
		meanScale += math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	meanScale /= float64(p)
	for i := 0; i < n; i++ {
		votes := 0
		for _, b := range blobs {
			if b[8+i/8]&(1<<(i%8)) != 0 {
				votes++
			}
		}
		if 2*votes >= p {
			grad[i] = meanScale
		} else {
			grad[i] = -meanScale
		}
	}
}

// refScatterAddPairs is the scalar sparse decode: zero, add, then scale in
// a separate full pass.
func refScatterAddPairs(blobs [][]byte, grad []float64, p int) {
	for i := range grad {
		grad[i] = 0
	}
	for _, b := range blobs {
		for off := 0; off+topkPairBytes <= len(b); off += topkPairBytes {
			ix := int(binary.LittleEndian.Uint32(b[off:]))
			grad[ix] += math.Float64frombits(binary.LittleEndian.Uint64(b[off+4:]))
		}
	}
	inv := 1 / float64(p)
	for i := range grad {
		grad[i] *= inv
	}
}

func randGrad(rng *rand.Rand, n int) []float64 {
	g := make([]float64, n)
	for i := range g {
		g[i] = rng.NormFloat64()
	}
	// Sprinkle exact zeros and negative zeros: the >= 0 packing convention
	// must survive the word-parallel rewrite on them too.
	for i := 0; i < n; i += 17 {
		g[i] = 0
	}
	for i := 9; i < n; i += 31 {
		g[i] = math.Copysign(0, -1)
	}
	return g
}

func forceSerial(t *testing.T) {
	t.Helper()
	prevW := tensor.SetParallelism(1)
	t.Cleanup(func() { tensor.SetParallelism(prevW) })
}

func forceParallel(t *testing.T) {
	t.Helper()
	prevW := tensor.SetParallelism(4)
	prevT := tensor.SetParallelThreshold(1)
	t.Cleanup(func() {
		tensor.SetParallelism(prevW)
		tensor.SetParallelThreshold(prevT)
	})
}

func TestSignEncodeMatchesScalarReference(t *testing.T) {
	forceSerial(t)
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 7, 63, 64, 65, 127, 128, 200, 1000} {
		for _, useEF := range []bool{false, true} {
			s := NewSign(n, useEF)
			refErr := make([]float64, n)
			for step := 0; step < 3; step++ {
				grad := randGrad(rng, n)
				got := s.Encode(step, grad)
				want := refSignEncode(n, useEF, refErr, grad)
				if !bytes.Equal(got, want) {
					t.Fatalf("n=%d ef=%v step=%d: payload mismatch", n, useEF, step)
				}
				for i := range refErr {
					if s.err[i] != refErr[i] {
						t.Fatalf("n=%d ef=%v step=%d: err[%d]=%v want %v", n, useEF, step, i, s.err[i], refErr[i])
					}
				}
			}
		}
	}
}

func TestSignDecodeMatchesScalarReference(t *testing.T) {
	forceSerial(t)
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{1, 63, 64, 65, 130, 1000} {
		for _, p := range []int{1, 2, 3, 4, 5, 8, 9, 64} {
			blobs := make([][]byte, p)
			for r := range blobs {
				enc := NewSign(n, false)
				blobs[r] = append([]byte(nil), enc.Encode(0, randGrad(rng, n))...)
			}
			dec := NewSign(n, false)
			got := make([]float64, n)
			if err := dec.Decode(0, blobs, got); err != nil {
				t.Fatal(err)
			}
			want := make([]float64, n)
			refSignDecode(n, blobs, want)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d p=%d elem %d: got %v want %v", n, p, i, got[i], want[i])
				}
			}
		}
	}
}

func TestSignKernelsParallelEquivalence(t *testing.T) {
	const n, p = 100_000, 4
	rng := rand.New(rand.NewSource(13))
	grad := randGrad(rng, n)

	serial := NewSign(n, true)
	forceSerial(t)
	wantBlob := append([]byte(nil), serial.Encode(0, grad)...)

	forceParallel(t)
	par := NewSign(n, true)
	gotBlob := par.Encode(0, grad)
	// Sign bits are order-independent; the scale is a sharded reduction and
	// may differ in the last ulp.
	if !bytes.Equal(gotBlob[8:], wantBlob[8:]) {
		t.Fatal("parallel sign packing changed the payload bits")
	}
	ws := math.Float64frombits(binary.LittleEndian.Uint64(wantBlob))
	gs := math.Float64frombits(binary.LittleEndian.Uint64(gotBlob))
	if math.Abs(ws-gs) > 1e-12*math.Abs(ws) {
		t.Fatalf("parallel scale %v vs serial %v", gs, ws)
	}
	for i := range par.err {
		if math.Abs(par.err[i]-serial.err[i]) > 1e-12 {
			t.Fatalf("err[%d]: parallel %v vs serial %v", i, par.err[i], serial.err[i])
		}
	}

	blobs := make([][]byte, p)
	for r := range blobs {
		enc := NewSign(n, false)
		blobs[r] = append([]byte(nil), enc.Encode(0, randGrad(rng, n))...)
	}
	got := make([]float64, n)
	dec := NewSign(n, false)
	if err := dec.Decode(0, blobs, got); err != nil {
		t.Fatal(err)
	}
	want := make([]float64, n)
	refSignDecode(n, blobs, want)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("parallel decode elem %d: got %v want %v", i, got[i], want[i])
		}
	}
}

// selectedMags returns the sorted magnitudes a Top-k payload carries.
func selectedMags(blob []byte) []float64 {
	out := make([]float64, 0, len(blob)/topkPairBytes)
	for off := 0; off+topkPairBytes <= len(blob); off += topkPairBytes {
		out = append(out, math.Abs(math.Float64frombits(binary.LittleEndian.Uint64(blob[off+4:]))))
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func TestTopKExactPrefilterMatchesFullQuickselect(t *testing.T) {
	forceSerial(t)
	rng := rand.New(rand.NewSource(14))
	// Large enough to take the sampled-prefilter path (n >= prefilterMinN,
	// 8k <= n).
	const n, k = 50_000, 100
	grad := randGrad(rng, n)
	tk := NewTopK(n, k, SelectExact, false, 3)
	got := selectedMags(tk.Encode(0, grad))
	if len(got) != k {
		t.Fatalf("exact selection returned %d coords, want %d", len(got), k)
	}

	// Reference: full quickselect over all coordinates.
	idx := make([]int, n)
	mags := make([]float64, n)
	for i := range idx {
		idx[i] = i
		mags[i] = math.Abs(grad[i])
	}
	quickselectTopK(idx, mags, k, rand.New(rand.NewSource(1)))
	want := make([]float64, k)
	for i, ix := range idx[:k] {
		want[i] = mags[ix]
	}
	for i := 1; i < len(want); i++ {
		for j := i; j > 0 && want[j] < want[j-1]; j-- {
			want[j], want[j-1] = want[j-1], want[j]
		}
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("magnitude %d: prefiltered %v want %v", i, got[i], want[i])
		}
	}
}

func TestTopKSampledSelectionStaysInBudget(t *testing.T) {
	forceSerial(t)
	rng := rand.New(rand.NewSource(15))
	const n, k = 200_000, 200
	tk := NewTopK(n, k, SelectSampled, false, 4)
	for step := 0; step < 5; step++ {
		blob := tk.Encode(step, randGrad(rng, n))
		got := len(blob) / topkPairBytes
		if got < k || got > 2*k {
			t.Fatalf("step %d: sampled selection returned %d coords, want in [%d,%d]", step, got, k, 2*k)
		}
	}
}

func TestScatterAddPairsMatchesScalarReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	const n, k, p = 4096, 64, 5
	blobs := make([][]byte, p)
	for r := range blobs {
		tk := NewTopK(n, k, SelectExact, false, int64(r))
		blobs[r] = append([]byte(nil), tk.Encode(0, randGrad(rng, n))...)
	}
	got := make([]float64, n)
	if err := scatterAddPairs(blobs, got, 1/float64(p), "test"); err != nil {
		t.Fatal(err)
	}
	want := make([]float64, n)
	refScatterAddPairs(blobs, want, p)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12*math.Max(1, math.Abs(want[i])) {
			t.Fatalf("elem %d: fused %v scalar %v", i, got[i], want[i])
		}
	}
}

// TestEncodeDecodeAllocFree gates the pooled payload paths at 0 allocs/op
// in steady state. Parallelism is pinned to 1: the shard dispatch itself
// allocates its WaitGroup exactly like the matmul pool (the committed
// baselines are recorded single-core), and the gate targets the payload
// path, not the scheduler.
func TestEncodeDecodeAllocFree(t *testing.T) {
	forceSerial(t)
	rng := rand.New(rand.NewSource(19))
	const n, p = 65_536, 4
	grad := randGrad(rng, n)

	check := func(name string, warmups int, f func()) {
		t.Helper()
		for i := 0; i < warmups; i++ {
			f()
		}
		if allocs := testing.AllocsPerRun(10, f); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, allocs)
		}
	}

	sign := NewSign(n, true)
	step := 0
	check("Sign.Encode", 2, func() { sign.Encode(step, grad); step++ })

	signBlobs := make([][]byte, p)
	for r := range signBlobs {
		enc := NewSign(n, false)
		signBlobs[r] = append([]byte(nil), enc.Encode(0, randGrad(rng, n))...)
	}
	signDec := NewSign(n, false)
	signOut := make([]float64, n)
	check("Sign.Decode", 1, func() {
		if err := signDec.Decode(0, signBlobs, signOut); err != nil {
			t.Fatal(err)
		}
	})

	topk := NewTopK(n, n/1000, SelectExact, true, 5)
	check("TopK.Encode/exact", 3, func() { topk.Encode(0, grad) })

	sampled := NewTopK(n, n/1000, SelectSampled, true, 6)
	check("TopK.Encode/sampled", 5, func() { sampled.Encode(0, grad) })

	topkBlobs := make([][]byte, p)
	for r := range topkBlobs {
		enc := NewTopK(n, n/1000, SelectExact, false, int64(10+r))
		topkBlobs[r] = append([]byte(nil), enc.Encode(0, randGrad(rng, n))...)
	}
	topkDec := NewTopK(n, n/1000, SelectExact, false, 20)
	topkOut := make([]float64, n)
	check("TopK.Decode", 1, func() {
		if err := topkDec.Decode(0, topkBlobs, topkOut); err != nil {
			t.Fatal(err)
		}
	})

	dgc := NewDGC(n, n/1000, 0, true, 7)
	check("DGC.Encode", 3, func() { dgc.Encode(0, grad) })
}

// TestCompressKernelsForcedParallelRace drives every sharded kernel from
// several goroutines with the pool forced on, so `go test -race` exercises
// the shard handoff in the pattern concurrent training workers produce.
func TestCompressKernelsForcedParallelRace(t *testing.T) {
	forceParallel(t)
	const n, p, workers, steps = 30_000, 4, 4, 3
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			grad := randGrad(rng, n)
			sign := NewSign(n, true)
			topk := NewTopK(n, n/100, SelectSampled, true, int64(w))
			out := make([]float64, n)
			for s := 0; s < steps; s++ {
				signBlob := append([]byte(nil), sign.Encode(s, grad)...)
				blobs := [][]byte{signBlob, signBlob, signBlob, signBlob}
				if err := sign.Decode(s, blobs[:p], out); err != nil {
					t.Error(err)
					return
				}
				tb := append([]byte(nil), topk.Encode(s, grad)...)
				if err := topk.Decode(s, [][]byte{tb, tb}, out); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestWireRates(t *testing.T) {
	cases := []struct {
		spec string
		n    int
		want float64
		tol  float64
	}{
		{"sign", 1 << 20, 1.0 / 32, 1e-3},
		// Default selection is sampled, which ships up to 2k pairs: 2x rate.
		{"topk:ratio=0.01", 1 << 20, 0.06, 1e-9},
		{"topk:ratio=0.01,selection=exact", 1 << 20, 0.03, 1e-9},
		{"dgc:ratio=0.001", 1 << 20, 0.003, 1e-9},
	}
	for _, c := range cases {
		spec, err := ParseSpec(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		f, resolved, err := Resolve(spec)
		if err != nil {
			t.Fatal(err)
		}
		rater, ok := f.(WireRater)
		if !ok {
			t.Fatalf("%s: factory does not implement WireRater", c.spec)
		}
		got := rater.WireRate(resolved, c.n)
		if math.Abs(got-c.want) > c.tol {
			t.Errorf("%s: WireRate=%v want ~%v", c.spec, got, c.want)
		}
	}
}
