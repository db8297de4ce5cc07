package compress

import (
	"math"
	"math/rand"
	"testing"
)

func TestIdentityRoundTrip(t *testing.T) {
	id := NewIdentity(4)
	grad := []float64{1, 2, 3, 4}
	payload := id.Compress(0, grad)
	if id.PayloadLen(0) != 4 {
		t.Fatalf("PayloadLen=%d", id.PayloadLen(0))
	}
	// Simulate 2-worker sum: payload*2.
	agg := make([]float64, 4)
	for i, v := range payload {
		agg[i] = 2 * v
	}
	id.Finalize(0, agg, 2, grad)
	want := []float64{1, 2, 3, 4}
	for i := range grad {
		if math.Abs(grad[i]-want[i]) > 1e-12 {
			t.Fatalf("identity finalize: got %v", grad)
		}
	}
}

// fakeCollectives simulates p workers that all contribute the payloads
// registered via addWorker; AllReduceSum returns the element-wise sum.
type fakeCollectives struct {
	p     int
	peers [][]float64 // contributions of the other p-1 workers, per call
	call  int
	blobs [][]byte
}

func (f *fakeCollectives) AllReduceSum(buf []float64) error {
	if f.call < len(f.peers) {
		for i := range buf {
			buf[i] += f.peers[f.call][i]
		}
	}
	f.call++
	return nil
}

func (f *fakeCollectives) AllGather(local []byte) (Gathered, error) {
	out := PayloadList{local}
	out = append(out, f.blobs...)
	return out, nil
}

func (f *fakeCollectives) Size() int { return f.p }

func TestSignEncodeDecodeSingleWorker(t *testing.T) {
	s := NewSign(5, false)
	grad := []float64{1, -2, 3, -4, 0}
	blob := s.Encode(0, grad)
	if len(blob) != 8+1 {
		t.Fatalf("payload length %d, want 9", len(blob))
	}
	out := make([]float64, 5)
	if err := s.Decode(0, [][]byte{blob}, out); err != nil {
		t.Fatal(err)
	}
	scale := (1.0 + 2 + 3 + 4 + 0) / 5
	want := []float64{scale, -scale, scale, -scale, scale} // 0 encodes as +
	for i := range out {
		if math.Abs(out[i]-want[i]) > 1e-12 {
			t.Fatalf("decode: got %v want %v", out, want)
		}
	}
}

func TestSignMajorityVote(t *testing.T) {
	n := 3
	grads := [][]float64{
		{1, -1, 1},
		{1, -1, -1},
		{-1, -1, -1},
	}
	blobs := make([][]byte, 3)
	for w := range grads {
		sw := NewSign(n, false)
		//acpvet:ignore each worker compressor encodes exactly once, so its payload is never re-leased
		blobs[w] = sw.Encode(0, grads[w])
	}
	dec := NewSign(n, false)
	out := make([]float64, n)
	if err := dec.Decode(0, blobs, out); err != nil {
		t.Fatal(err)
	}
	// Majority: [+, -, -], scale = 1 for all workers.
	if out[0] <= 0 || out[1] >= 0 || out[2] >= 0 {
		t.Fatalf("majority wrong: %v", out)
	}
}

func TestSignErrorFeedbackAccumulates(t *testing.T) {
	s := NewSign(2, true)
	grad := []float64{0.5, -3.0}
	s.Encode(0, grad)
	// scale = (0.5+3)/2 = 1.75; compressed = [1.75, -1.75];
	// err = [0.5-1.75, -3+1.75] = [-1.25, -1.25]
	if math.Abs(s.err[0]+1.25) > 1e-12 || math.Abs(s.err[1]+1.25) > 1e-12 {
		t.Fatalf("err=%v", s.err)
	}
	if s.ErrorNorm() == 0 {
		t.Fatal("error norm should be non-zero")
	}
	// Without EF the error stays zero.
	s2 := NewSign(2, false)
	s2.Encode(0, grad)
	if s2.ErrorNorm() != 0 {
		t.Fatal("EF disabled must not accumulate error")
	}
}

func TestSignDecodeRejectsBadPayload(t *testing.T) {
	s := NewSign(4, false)
	if err := s.Decode(0, [][]byte{make([]byte, 3)}, make([]float64, 4)); err == nil {
		t.Fatal("expected error for short payload")
	}
	if err := s.Decode(0, nil, make([]float64, 4)); err == nil {
		t.Fatal("expected error for empty payload set")
	}
	if err := s.Decode(0, [][]byte{make([]byte, 9)}, make([]float64, 5)); err == nil {
		t.Fatal("expected error for grad length mismatch")
	}
}

func TestSignCompressionRatio(t *testing.T) {
	// 1 bit per fp32 element => ~32x; our payload is 8+n/8 bytes versus 4n.
	n := 1 << 20
	ratio := float64(4*n) / float64(signPayloadLen(n))
	if ratio < 31 || ratio > 32.1 {
		t.Fatalf("sign ratio = %.2f, want ~32", ratio)
	}
}

func TestTopKExactSelection(t *testing.T) {
	tk := NewTopK(6, 2, SelectExact, false, 1)
	grad := []float64{0.1, -5, 0.2, 4, -0.3, 0.05}
	blob := tk.Encode(0, grad)
	if len(blob) != 2*topkPairBytes {
		t.Fatalf("payload %d bytes, want %d", len(blob), 2*topkPairBytes)
	}
	out := make([]float64, 6)
	if err := tk.Decode(0, [][]byte{blob}, out); err != nil {
		t.Fatal(err)
	}
	want := []float64{0, -5, 0, 4, 0, 0}
	for i := range out {
		if math.Abs(out[i]-want[i]) > 1e-12 {
			t.Fatalf("topk decode: got %v want %v", out, want)
		}
	}
}

func TestTopKQuickselectProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 50; trial++ {
		n := 10 + rng.Intn(200)
		k := 1 + rng.Intn(n)
		mags := make([]float64, n)
		idx := make([]int, n)
		for i := range mags {
			mags[i] = rng.Float64()
			idx[i] = i
		}
		quickselectTopK(idx, mags, k, rng)
		// min of first k must be >= max of the rest.
		minTop := math.Inf(1)
		for _, i := range idx[:k] {
			if mags[i] < minTop {
				minTop = mags[i]
			}
		}
		for _, i := range idx[k:] {
			if mags[i] > minTop+1e-15 {
				t.Fatalf("trial %d: quickselect violated (n=%d k=%d)", trial, n, k)
			}
		}
	}
}

func TestTopKSampledSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	n, k := 10000, 10
	grad := make([]float64, n)
	for i := range grad {
		grad[i] = rng.NormFloat64()
	}
	tk := NewTopK(n, k, SelectSampled, false, 2)
	blob := tk.Encode(0, grad)
	got := len(blob) / topkPairBytes
	if got < k || got > 2*k {
		t.Fatalf("sampled selection returned %d coords, want in [%d,%d]", got, k, 2*k)
	}
}

func TestTopKSampledFallsBackWhenKLarge(t *testing.T) {
	tk := NewTopK(8, 8, SelectSampled, false, 3)
	grad := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	blob := tk.Encode(0, grad)
	if len(blob)/topkPairBytes != 8 {
		t.Fatalf("expected all 8 coords, got %d", len(blob)/topkPairBytes)
	}
}

func TestTopKErrorFeedbackKeepsResidual(t *testing.T) {
	tk := NewTopK(4, 1, SelectExact, true, 4)
	grad := []float64{1, -8, 2, 3}
	tk.Encode(0, grad)
	// Selected index 1; err = [1, 0, 2, 3].
	want := []float64{1, 0, 2, 3}
	for i := range want {
		if math.Abs(tk.err[i]-want[i]) > 1e-12 {
			t.Fatalf("err=%v want %v", tk.err, want)
		}
	}
	// Next step the residual re-enters: grad zero, biggest residual is 3 at
	// index 3.
	blob := tk.Encode(1, []float64{0, 0, 0, 0})
	out := make([]float64, 4)
	if err := tk.Decode(1, [][]byte{blob}, out); err != nil {
		t.Fatal(err)
	}
	if out[3] != 3 {
		t.Fatalf("residual not fed back: %v", out)
	}
}

func TestTopKDecodeMergesWorkers(t *testing.T) {
	// Two workers select different coordinates; decode averages.
	w1 := NewTopK(4, 1, SelectExact, false, 5)
	w2 := NewTopK(4, 1, SelectExact, false, 6)
	b1 := w1.Encode(0, []float64{10, 0, 0, 0})
	b2 := w2.Encode(0, []float64{0, 0, 0, 6})
	dec := NewTopK(4, 1, SelectExact, false, 7)
	out := make([]float64, 4)
	if err := dec.Decode(0, [][]byte{b1, b2}, out); err != nil {
		t.Fatal(err)
	}
	want := []float64{5, 0, 0, 3}
	for i := range out {
		if math.Abs(out[i]-want[i]) > 1e-12 {
			t.Fatalf("merge: got %v want %v", out, want)
		}
	}
}

func TestTopKDecodeRejectsBadPayload(t *testing.T) {
	tk := NewTopK(4, 1, SelectExact, false, 8)
	if err := tk.Decode(0, [][]byte{make([]byte, 5)}, make([]float64, 4)); err == nil {
		t.Fatal("expected error for odd payload length")
	}
	bad := make([]byte, topkPairBytes)
	bad[0] = 200 // index 200 out of range
	if err := tk.Decode(0, [][]byte{bad}, make([]float64, 4)); err == nil {
		t.Fatal("expected error for out-of-range index")
	}
	if err := tk.Decode(0, nil, make([]float64, 4)); err == nil {
		t.Fatal("expected error for empty payload set")
	}
}

func TestTopKCapsK(t *testing.T) {
	tk := NewTopK(3, 100, SelectExact, false, 10)
	if tk.K() != 3 {
		t.Fatalf("k=%d want 3", tk.K())
	}
	tk2 := NewTopK(10, 0, SelectExact, false, 11)
	if tk2.K() != 1 {
		t.Fatalf("k=%d want 1", tk2.K())
	}
}
