package tensor

import (
	"math/rand"
	"testing"

	"acpsgd/internal/coop"
)

// TestKernelsYieldWithoutChangingResults forces the in-flight gauge high, so
// every kernel call above one quantum takes its cooperative yield points, and
// demands what the kernels promise with the gauge at zero: the goldens and
// the parallel-vs-serial equivalence hold unchanged, every product is
// bit-identical to its gauge-zero result, and the serial kernels allocate
// nothing.
func TestKernelsYieldWithoutChangingResults(t *testing.T) {
	const n, k, m = 96, 160, 112 // 1.7M products: several quanta per call
	if n*k*m < 4*coop.QuantumFlops {
		t.Fatal("shape too small to cross a quantum")
	}
	rng := rand.New(rand.NewSource(19))
	products := []struct {
		name string
		run  func(dst, a, b *Matrix)
		a, b *Matrix
	}{
		{"MatMul", MatMul, randMat(rng, n, k), randMat(rng, k, m)},
		{"MatMulTA", MatMulTA, randMat(rng, k, n), randMat(rng, k, m)},
		{"MatMulTB", MatMulTB, randMat(rng, n, k), randMat(rng, m, k)},
	}
	quiet := make([]*Matrix, len(products))
	for i, p := range products {
		quiet[i] = New(n, m)
		p.run(quiet[i], p.a, p.b)
	}

	coop.Begin()
	defer coop.End()
	t.Run("goldens", TestMatMulKernelsMatchNaive)
	t.Run("parallel-vs-serial", TestParallelKernelsMatchSerial)
	defer SetParallelism(SetParallelism(1))
	for i, p := range products {
		got := New(n, m)
		p.run(got, p.a, p.b)
		for j, v := range got.Data {
			if v != quiet[i].Data[j] {
				t.Fatalf("%s: element %d differs with the gauge high: %v vs %v", p.name, j, v, quiet[i].Data[j])
			}
		}
		if allocs := testing.AllocsPerRun(5, func() { p.run(got, p.a, p.b) }); allocs != 0 {
			t.Errorf("%s: %v allocs/op on the serial path with the gauge high", p.name, allocs)
		}
	}
}
