// Package tensor provides the dense linear-algebra substrate used by the
// gradient-compression algorithms: row-major float64 matrices, the handful of
// BLAS-like kernels Power-SGD and ACP-SGD need (general matmul, transposed
// matmuls, AXPY-style updates), and Gram–Schmidt orthogonalization as a
// stand-in for the reduced QR decomposition the paper performs with
// torch.linalg.qr.
//
// The paper's tensors are float32 on GPU; we compute in float64 for numeric
// robustness on CPU and model the wire size separately (see internal/sim,
// which accounts 4 bytes per element as in the paper's fp32 setting).
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense row-major matrix. The zero value is an empty matrix.
type Matrix struct {
	Rows, Cols int
	// Data holds Rows*Cols values in row-major order.
	Data []float64
}

// New returns a zeroed rows x cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps data (not copied) as a rows x cols matrix.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data length %d != %dx%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// NumElems returns Rows*Cols.
func (m *Matrix) NumElems() int { return m.Rows * m.Cols }

// Zero sets every element to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element to v.
func (m *Matrix) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// CopyFrom copies src into m; shapes must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("tensor: CopyFrom shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, src.Rows, src.Cols))
	}
	copy(m.Data, src.Data)
}

// Randomize fills m with i.i.d. N(0, stddev^2) samples from rng.
func (m *Matrix) Randomize(rng *rand.Rand, stddev float64) {
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * stddev
	}
}

// Scale multiplies every element by a.
func (m *Matrix) Scale(a float64) {
	for i := range m.Data {
		m.Data[i] *= a
	}
}

// Add accumulates other into m element-wise.
func (m *Matrix) Add(other *Matrix) {
	if m.NumElems() != other.NumElems() {
		panic("tensor: Add size mismatch")
	}
	for i, v := range other.Data {
		m.Data[i] += v
	}
}

// AddScaled accumulates a*other into m element-wise.
func (m *Matrix) AddScaled(a float64, other *Matrix) {
	if m.NumElems() != other.NumElems() {
		panic("tensor: AddScaled size mismatch")
	}
	for i, v := range other.Data {
		m.Data[i] += a * v
	}
}

// Sub subtracts other from m element-wise.
func (m *Matrix) Sub(other *Matrix) {
	if m.NumElems() != other.NumElems() {
		panic("tensor: Sub size mismatch")
	}
	for i, v := range other.Data {
		m.Data[i] -= v
	}
}

// FrobeniusNorm returns the Frobenius norm of m.
func (m *Matrix) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// MaxAbs returns max_i |m_i|, or 0 for an empty matrix.
func (m *Matrix) MaxAbs() float64 {
	var mx float64
	for _, v := range m.Data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// String renders a compact shape descriptor (not the contents).
func (m *Matrix) String() string { return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols) }

// MatMul computes dst = a * b. dst must be a.Rows x b.Cols and distinct from
// a and b. It panics on shape mismatch. Large products are sharded across
// the package worker pool (see kernels.go); small ones run serially. Either
// way the rows are computed one work quantum at a time, with a cooperative
// yield point between quanta (rowsInQuanta); the same holds for MatMulTA and
// MatMulTB.
func MatMul(dst, a, b *Matrix) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch (%dx%d)*(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	rowFlops := a.Cols * b.Cols
	if !useParallel(a.Rows, a.Rows*rowFlops) {
		rowsInQuanta(matMulRows, rowFlops, dst, a, b, 0, a.Rows)
		return
	}
	parallelRows(a.Rows, func(lo, hi int) {
		rowsInQuanta(matMulRows, rowFlops, dst, a, b, lo, hi)
	})
}

// MatMulTA computes dst = aᵀ * b (a is n x m used as m x n). dst must be
// a.Cols x b.Cols.
func MatMulTA(dst, a, b *Matrix) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulTA shape mismatch (%dx%d)ᵀ*(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	rowFlops := a.Rows * b.Cols
	if !useParallel(a.Cols, a.Cols*rowFlops) {
		rowsInQuanta(matMulTARows, rowFlops, dst, a, b, 0, a.Cols)
		return
	}
	parallelRows(a.Cols, func(lo, hi int) {
		rowsInQuanta(matMulTARows, rowFlops, dst, a, b, lo, hi)
	})
}

// MatMulTB computes dst = a * bᵀ. dst must be a.Rows x b.Rows.
func MatMulTB(dst, a, b *Matrix) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTB shape mismatch (%dx%d)*(%dx%d)ᵀ->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	rowFlops := a.Cols * b.Rows
	if !useParallel(a.Rows, a.Rows*rowFlops) {
		rowsInQuanta(matMulTBRows, rowFlops, dst, a, b, 0, a.Rows)
		return
	}
	parallelRows(a.Rows, func(lo, hi int) {
		rowsInQuanta(matMulTBRows, rowFlops, dst, a, b, lo, hi)
	})
}

// Dot returns the inner product of two equal-length vectors. Four running
// accumulators keep the multiply-add chains independent so the loop is
// throughput- rather than latency-bound.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("tensor: Dot length mismatch")
	}
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	s := s0 + s1 + s2 + s3
	for ; i < len(a); i++ {
		s += a[i] * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}
