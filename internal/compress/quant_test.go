package compress

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestQSGDRoundTripZeroVector(t *testing.T) {
	q := NewQSGD(4, 8, 1)
	blob := q.Encode(0, []float64{0, 0, 0, 0})
	out := make([]float64, 4)
	if err := q.Decode(0, [][]byte{blob}, out); err != nil {
		t.Fatal(err)
	}
	for _, v := range out {
		if v != 0 {
			t.Fatalf("zero vector must decode to zero: %v", out)
		}
	}
}

func TestQSGDUnbiasedEstimator(t *testing.T) {
	// Average many independent quantizations of a fixed vector: the mean
	// must approach the vector (QSGD's defining property).
	const n, trials = 16, 4000
	rng := rand.New(rand.NewSource(50))
	grad := make([]float64, n)
	for i := range grad {
		grad[i] = rng.NormFloat64()
	}
	sum := make([]float64, n)
	out := make([]float64, n)
	for trial := 0; trial < trials; trial++ {
		q := NewQSGD(n, 4, int64(trial))
		blob := q.Encode(0, grad)
		if err := q.Decode(0, [][]byte{blob}, out); err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			sum[i] += v
		}
	}
	var norm float64
	for _, v := range grad {
		norm += v * v
	}
	norm = math.Sqrt(norm)
	for i := range sum {
		mean := sum[i] / trials
		// Standard error of the quantizer at 4 levels is ~norm/4/sqrt(T).
		if math.Abs(mean-grad[i]) > 4*norm/4/math.Sqrt(trials)+0.02 {
			t.Fatalf("elem %d biased: mean %v want %v", i, mean, grad[i])
		}
	}
}

func TestQSGDMagnitudesBounded(t *testing.T) {
	// Every decoded magnitude is at most the vector norm.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(32)
		grad := make([]float64, n)
		var norm float64
		for i := range grad {
			grad[i] = rng.NormFloat64()
			norm += grad[i] * grad[i]
		}
		norm = math.Sqrt(norm)
		q := NewQSGD(n, 8, seed)
		blob := q.Encode(0, grad)
		out := make([]float64, n)
		if err := q.Decode(0, [][]byte{blob}, out); err != nil {
			return false
		}
		for _, v := range out {
			if math.Abs(v) > norm*(1+1e-12) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQSGDCompressionRatio(t *testing.T) {
	// 1 byte per fp32 element => ~4x.
	n := 1 << 16
	ratio := float64(4*n) / float64(qsgdPayloadLen(n))
	if ratio < 3.9 || ratio > 4.01 {
		t.Fatalf("QSGD ratio %.2f, want ~4", ratio)
	}
}

func TestQSGDDecodeValidation(t *testing.T) {
	q := NewQSGD(4, 8, 1)
	if err := q.Decode(0, nil, make([]float64, 4)); err == nil {
		t.Fatal("expected error for no payloads")
	}
	if err := q.Decode(0, [][]byte{make([]byte, 3)}, make([]float64, 4)); err == nil {
		t.Fatal("expected error for short payload")
	}
	if err := q.Decode(0, [][]byte{make([]byte, qsgdPayloadLen(4))}, make([]float64, 5)); err == nil {
		t.Fatal("expected error for grad length mismatch")
	}
}

func TestQSGDLevelsClamped(t *testing.T) {
	q := NewQSGD(4, 0, 1)
	if q.levels != 1 {
		t.Fatalf("levels %d want 1", q.levels)
	}
	q = NewQSGD(4, 1000, 1)
	if q.levels != 127 {
		t.Fatalf("levels %d want 127", q.levels)
	}
}

func TestTernGradValuesAreTernary(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	const n = 64
	grad := make([]float64, n)
	var scale float64
	for i := range grad {
		grad[i] = rng.NormFloat64()
		if a := math.Abs(grad[i]); a > scale {
			scale = a
		}
	}
	tg := NewTernGrad(n, 1)
	blob := tg.Encode(0, grad)
	out := make([]float64, n)
	if err := tg.Decode(0, [][]byte{blob}, out); err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != 0 && math.Abs(math.Abs(v)-scale) > 1e-12 {
			t.Fatalf("elem %d not ternary: %v (scale %v)", i, v, scale)
		}
		// Sign must agree with the input when non-zero.
		if v != 0 && v*grad[i] < 0 {
			t.Fatalf("elem %d sign flipped", i)
		}
	}
}

func TestTernGradUnbiasedEstimator(t *testing.T) {
	const n, trials = 8, 6000
	rng := rand.New(rand.NewSource(52))
	grad := make([]float64, n)
	var scale float64
	for i := range grad {
		grad[i] = rng.NormFloat64()
		if a := math.Abs(grad[i]); a > scale {
			scale = a
		}
	}
	sum := make([]float64, n)
	out := make([]float64, n)
	for trial := 0; trial < trials; trial++ {
		tg := NewTernGrad(n, int64(trial))
		blob := tg.Encode(0, grad)
		if err := tg.Decode(0, [][]byte{blob}, out); err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			sum[i] += v
		}
	}
	for i := range sum {
		mean := sum[i] / trials
		if math.Abs(mean-grad[i]) > 4*scale/math.Sqrt(trials)+0.02 {
			t.Fatalf("elem %d biased: mean %v want %v", i, mean, grad[i])
		}
	}
}

func TestTernGradZeroVector(t *testing.T) {
	tg := NewTernGrad(5, 1)
	blob := tg.Encode(0, make([]float64, 5))
	out := make([]float64, 5)
	if err := tg.Decode(0, [][]byte{blob}, out); err != nil {
		t.Fatal(err)
	}
	for _, v := range out {
		if v != 0 {
			t.Fatal("zero in, zero out")
		}
	}
}

func TestTernGradCompressionRatio(t *testing.T) {
	// 2 bits per fp32 element => ~16x.
	n := 1 << 16
	ratio := float64(4*n) / float64(ternPayloadLen(n))
	if ratio < 15.5 || ratio > 16.01 {
		t.Fatalf("TernGrad ratio %.2f, want ~16", ratio)
	}
}

func TestTernGradDecodeValidation(t *testing.T) {
	tg := NewTernGrad(4, 1)
	if err := tg.Decode(0, nil, make([]float64, 4)); err == nil {
		t.Fatal("expected error for no payloads")
	}
	if err := tg.Decode(0, [][]byte{make([]byte, 3)}, make([]float64, 4)); err == nil {
		t.Fatal("expected error for short payload")
	}
}

func TestQuantizerMultiWorkerAverage(t *testing.T) {
	// Two workers with opposite gradients: the averaged decode must be near
	// zero in expectation; with deterministic ternary codes it is exactly
	// the mean of the two decoded vectors.
	const n = 32
	rng := rand.New(rand.NewSource(53))
	g1 := make([]float64, n)
	g2 := make([]float64, n)
	for i := range g1 {
		g1[i] = rng.NormFloat64()
		g2[i] = -g1[i]
	}
	q1 := NewQSGD(n, 8, 1)
	q2 := NewQSGD(n, 8, 2)
	b1 := q1.Encode(0, g1)
	b2 := q2.Encode(0, g2)
	out := make([]float64, n)
	if err := q1.Decode(0, [][]byte{b1, b2}, out); err != nil {
		t.Fatal(err)
	}
	var norm float64
	for _, v := range g1 {
		norm += v * v
	}
	norm = math.Sqrt(norm)
	for i, v := range out {
		if math.Abs(v) > norm/2 {
			t.Fatalf("elem %d: averaged decode too large: %v", i, v)
		}
	}
}
