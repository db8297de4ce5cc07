package nn

import (
	"fmt"
	"math"
	"math/rand"

	"acpsgd/internal/coop"
	"acpsgd/internal/tensor"
)

// Embedding maps integer token ids (carried as float64 values in the input
// matrix) to learned vectors: input [batch, seq] of ids, output
// [batch, seq*dim]. Its weight is a (vocab, dim) matrix — exactly the
// embedding tensors that dominate BERT's gradient volume in the paper's
// traffic analysis.
type Embedding struct {
	name       string
	vocab, dim int
	w          *Param
	ids        []int
	y          *tensor.Matrix
	dx         *tensor.Matrix
}

var _ Layer = (*Embedding)(nil)

// NewEmbedding builds an embedding table initialized N(0, 1/sqrt(dim)).
func NewEmbedding(name string, vocab, dim int, rng *rand.Rand) *Embedding {
	w := tensor.New(vocab, dim)
	w.Randomize(rng, 1/math.Sqrt(float64(dim)))
	return &Embedding{
		name:  name,
		vocab: vocab,
		dim:   dim,
		w:     &Param{Name: name + ".weight", W: w, Grad: tensor.New(vocab, dim)},
	}
}

// Name returns the layer name.
func (e *Embedding) Name() string { return e.name }

// Params returns the embedding table.
func (e *Embedding) Params() []*Param { return []*Param{e.w} }

// Forward gathers rows of the table.
func (e *Embedding) Forward(x *tensor.Matrix) *tensor.Matrix {
	batch, seq := x.Rows, x.Cols
	if e.y == nil || e.y.Rows != batch || e.y.Cols != seq*e.dim {
		e.y = tensor.New(batch, seq*e.dim)
		e.dx = tensor.New(batch, seq)
		e.ids = make([]int, batch*seq)
	}
	for b := 0; b < batch; b++ {
		for s := 0; s < seq; s++ {
			id := int(x.At(b, s))
			if id < 0 || id >= e.vocab {
				panic(fmt.Sprintf("nn: %s token id %d out of range [0,%d)", e.name, id, e.vocab))
			}
			e.ids[b*seq+s] = id
			copy(e.y.Data[(b*seq+s)*e.dim:(b*seq+s+1)*e.dim], e.w.W.Data[id*e.dim:(id+1)*e.dim])
		}
	}
	return e.y
}

// Backward scatter-adds gradients into the table rows; the input gradient is
// zero (ids are not differentiable).
func (e *Embedding) Backward(dout *tensor.Matrix) *tensor.Matrix {
	total := len(e.ids)
	for p := 0; p < total; p++ {
		id := e.ids[p]
		drow := dout.Data[p*e.dim : (p+1)*e.dim]
		grow := e.w.Grad.Data[id*e.dim : (id+1)*e.dim]
		for i, v := range drow {
			grow[i] += v
		}
	}
	e.dx.Zero()
	return e.dx
}

// LayerNorm normalizes every dim-sized group of the feature axis (i.e. each
// sequence position) to zero mean and unit variance, then applies learned
// gain and bias. Both parameters are vectors, so they bypass low-rank
// compression like the paper's LayerNorm parameters.
type LayerNorm struct {
	name  string
	dim   int
	eps   float64
	gamma *Param
	beta  *Param

	xhat  *tensor.Matrix
	invSD []float64
	y     *tensor.Matrix
	dx    *tensor.Matrix
}

var _ Layer = (*LayerNorm)(nil)

// NewLayerNorm builds a LayerNorm over groups of dim features.
func NewLayerNorm(name string, dim int) *LayerNorm {
	gamma := tensor.New(1, dim)
	gamma.Fill(1)
	return &LayerNorm{
		name:  name,
		dim:   dim,
		eps:   1e-5,
		gamma: &Param{Name: name + ".gamma", W: gamma, Grad: tensor.New(1, dim), IsVector: true},
		beta:  &Param{Name: name + ".beta", W: tensor.New(1, dim), Grad: tensor.New(1, dim), IsVector: true},
	}
}

// Name returns the layer name.
func (l *LayerNorm) Name() string { return l.name }

// Params returns gamma then beta.
func (l *LayerNorm) Params() []*Param { return []*Param{l.gamma, l.beta} }

// Forward normalizes each position.
func (l *LayerNorm) Forward(x *tensor.Matrix) *tensor.Matrix {
	if x.Cols%l.dim != 0 {
		panic(fmt.Sprintf("nn: %s width %d not a multiple of dim %d", l.name, x.Cols, l.dim))
	}
	groups := x.NumElems() / l.dim
	if l.y == nil || l.y.Rows != x.Rows || l.y.Cols != x.Cols {
		l.y = tensor.New(x.Rows, x.Cols)
		l.dx = tensor.New(x.Rows, x.Cols)
		l.xhat = tensor.New(x.Rows, x.Cols)
		l.invSD = make([]float64, groups)
	}
	for g := 0; g < groups; g++ {
		seg := x.Data[g*l.dim : (g+1)*l.dim]
		var mean float64
		for _, v := range seg {
			mean += v
		}
		mean /= float64(l.dim)
		var variance float64
		for _, v := range seg {
			d := v - mean
			variance += d * d
		}
		variance /= float64(l.dim)
		inv := 1 / math.Sqrt(variance+l.eps)
		l.invSD[g] = inv
		for i, v := range seg {
			xh := (v - mean) * inv
			l.xhat.Data[g*l.dim+i] = xh
			l.y.Data[g*l.dim+i] = xh*l.gamma.W.Data[i] + l.beta.W.Data[i]
		}
	}
	return l.y
}

// Backward applies the standard LayerNorm gradient.
func (l *LayerNorm) Backward(dout *tensor.Matrix) *tensor.Matrix {
	groups := dout.NumElems() / l.dim
	n := float64(l.dim)
	for g := 0; g < groups; g++ {
		var sumDxhat, sumDxhatXhat float64
		for i := 0; i < l.dim; i++ {
			d := dout.Data[g*l.dim+i]
			xh := l.xhat.Data[g*l.dim+i]
			l.gamma.Grad.Data[i] += d * xh
			l.beta.Grad.Data[i] += d
			dxh := d * l.gamma.W.Data[i]
			sumDxhat += dxh
			sumDxhatXhat += dxh * xh
		}
		inv := l.invSD[g]
		for i := 0; i < l.dim; i++ {
			d := dout.Data[g*l.dim+i]
			xh := l.xhat.Data[g*l.dim+i]
			dxh := d * l.gamma.W.Data[i]
			l.dx.Data[g*l.dim+i] = inv * (dxh - sumDxhat/n - xh*sumDxhatXhat/n)
		}
	}
	return l.dx
}

// MeanPool averages the sequence axis: [batch, seq*dim] → [batch, dim].
type MeanPool struct {
	name string
	dim  int
	seq  int
	y    *tensor.Matrix
	dx   *tensor.Matrix
}

var _ Layer = (*MeanPool)(nil)

// NewMeanPool builds a mean-pool over sequence positions of width dim.
func NewMeanPool(name string, dim int) *MeanPool { return &MeanPool{name: name, dim: dim} }

// Name returns the layer name.
func (m *MeanPool) Name() string { return m.name }

// Params returns nil.
func (m *MeanPool) Params() []*Param { return nil }

// Forward averages positions.
func (m *MeanPool) Forward(x *tensor.Matrix) *tensor.Matrix {
	if x.Cols%m.dim != 0 {
		panic(fmt.Sprintf("nn: %s width %d not a multiple of dim %d", m.name, x.Cols, m.dim))
	}
	m.seq = x.Cols / m.dim
	if m.y == nil || m.y.Rows != x.Rows {
		m.y = tensor.New(x.Rows, m.dim)
		m.dx = tensor.New(x.Rows, x.Cols)
	}
	m.y.Zero()
	inv := 1 / float64(m.seq)
	for b := 0; b < x.Rows; b++ {
		for s := 0; s < m.seq; s++ {
			seg := x.Data[b*x.Cols+s*m.dim : b*x.Cols+(s+1)*m.dim]
			for i, v := range seg {
				m.y.Data[b*m.dim+i] += v * inv
			}
		}
	}
	return m.y
}

// Backward spreads the gradient uniformly over positions.
func (m *MeanPool) Backward(dout *tensor.Matrix) *tensor.Matrix {
	inv := 1 / float64(m.seq)
	for b := 0; b < dout.Rows; b++ {
		for s := 0; s < m.seq; s++ {
			for i := 0; i < m.dim; i++ {
				m.dx.Data[b*m.dx.Cols+s*m.dim+i] = dout.Data[b*m.dim+i] * inv
			}
		}
	}
	return m.dx
}

// SelfAttention is single-head scaled dot-product attention over
// [batch, seq*dim] inputs with square (dim, dim) projection matrices — the
// shape family the low-rank compressors factorize in BERT.
type SelfAttention struct {
	name string
	dim  int

	wq, wk, wv, wo *Param

	// per-batch caches (seq x dim etc.), reallocated when shape changes
	x, q, k, v, att, ctx []*tensor.Matrix
	scores               []*tensor.Matrix
	// per-batch dQ, dK, dV, kept from backward's first sweep so each
	// projection's weight gradient can be finished (and reported) on its own
	dq, dk, dv []*tensor.Matrix
	y          *tensor.Matrix
	dx         *tensor.Matrix
	seq        int
}

var _ Layer = (*SelfAttention)(nil)

// NewSelfAttention builds the four projections with Xavier-style init.
func NewSelfAttention(name string, dim int, rng *rand.Rand) *SelfAttention {
	mk := func(suffix string) *Param {
		w := tensor.New(dim, dim)
		w.Randomize(rng, 1/math.Sqrt(float64(dim)))
		return &Param{Name: name + "." + suffix, W: w, Grad: tensor.New(dim, dim)}
	}
	return &SelfAttention{
		name: name,
		dim:  dim,
		wq:   mk("wq"), wk: mk("wk"), wv: mk("wv"), wo: mk("wo"),
	}
}

// Name returns the layer name.
func (a *SelfAttention) Name() string { return a.name }

// Params returns the projections in Q, K, V, O order.
func (a *SelfAttention) Params() []*Param { return []*Param{a.wq, a.wk, a.wv, a.wo} }

func (a *SelfAttention) ensure(batch, seq int) {
	if len(a.x) == batch && a.seq == seq {
		return
	}
	a.seq = seq
	mk := func(r, c int) []*tensor.Matrix {
		out := make([]*tensor.Matrix, batch)
		for i := range out {
			out[i] = tensor.New(r, c)
		}
		return out
	}
	a.x = mk(seq, a.dim)
	a.q = mk(seq, a.dim)
	a.k = mk(seq, a.dim)
	a.v = mk(seq, a.dim)
	a.att = mk(seq, seq)
	a.scores = mk(seq, seq)
	a.ctx = mk(seq, a.dim)
	a.dq = mk(seq, a.dim)
	a.dk = mk(seq, a.dim)
	a.dv = mk(seq, a.dim)
	a.y = tensor.New(batch, seq*a.dim)
	a.dx = tensor.New(batch, seq*a.dim)
}

// Forward computes softmax(QKᵀ/√d)·V·Woᵀ per batch element.
func (a *SelfAttention) Forward(x *tensor.Matrix) *tensor.Matrix {
	if x.Cols%a.dim != 0 {
		panic(fmt.Sprintf("nn: %s width %d not a multiple of dim %d", a.name, x.Cols, a.dim))
	}
	batch := x.Rows
	seq := x.Cols / a.dim
	a.ensure(batch, seq)
	scale := 1 / math.Sqrt(float64(a.dim))
	for b := 0; b < batch; b++ {
		copy(a.x[b].Data, x.Data[b*x.Cols:(b+1)*x.Cols])
		tensor.MatMulTB(a.q[b], a.x[b], a.wq.W)
		tensor.MatMulTB(a.k[b], a.x[b], a.wk.W)
		tensor.MatMulTB(a.v[b], a.x[b], a.wv.W)
		tensor.MatMulTB(a.scores[b], a.q[b], a.k[b])
		a.scores[b].Scale(scale)
		softmaxRows(a.att[b], a.scores[b])
		tensor.MatMul(a.ctx[b], a.att[b], a.v[b])
		out := tensor.FromSlice(seq, a.dim, a.y.Data[b*seq*a.dim:(b+1)*seq*a.dim])
		tensor.MatMulTB(out, a.ctx[b], a.wo.W)
	}
	return a.y
}

// softmaxRows writes row-wise softmax of src into dst.
func softmaxRows(dst, src *tensor.Matrix) {
	for r := 0; r < src.Rows; r++ {
		row := src.Data[r*src.Cols : (r+1)*src.Cols]
		drow := dst.Data[r*dst.Cols : (r+1)*dst.Cols]
		maxV := row[0]
		for _, v := range row[1:] {
			if v > maxV {
				maxV = v
			}
		}
		var sum float64
		for i, v := range row {
			e := math.Exp(v - maxV)
			drow[i] = e
			sum += e
		}
		inv := 1 / sum
		for i := range drow {
			drow[i] *= inv
		}
	}
}

// Backward propagates through the attention computation.
func (a *SelfAttention) Backward(dout *tensor.Matrix) *tensor.Matrix {
	return a.backwardHooked(dout, noHook)
}

// backwardHooked runs the backward pass as one sweep over the batch per
// projection, so each weight gradient is complete, and reported, before the
// next one starts: Wo (with dQ, dK, dV of every batch element kept for
// later), then Wv, Wk, Wq, then the input gradient. Every gradient
// accumulates the same per-element terms in the same batch order as a single
// fused sweep would.
//
// Each batch element of each sweep ends in a cooperative yield point
// (package coop): the per-element products are all below one kernel quantum,
// so without it the whole block would run without ever letting the
// communication stream in.
func (a *SelfAttention) backwardHooked(dout *tensor.Matrix, hook GradHook) *tensor.Matrix {
	batch := dout.Rows
	seq := a.seq
	scale := 1 / math.Sqrt(float64(a.dim))
	dctx := tensor.New(seq, a.dim)
	datt := tensor.New(seq, seq)
	dscore := tensor.New(seq, seq)
	tmpWG := tensor.New(a.dim, a.dim)
	dxb := tensor.New(seq, a.dim)
	acc := tensor.New(seq, a.dim)
	for b := 0; b < batch; b++ {
		dy := tensor.FromSlice(seq, a.dim, dout.Data[b*seq*a.dim:(b+1)*seq*a.dim])

		// Y = C·Woᵀ: dWo += dYᵀ·C; dC = dY·Wo.
		tensor.MatMulTA(tmpWG, dy, a.ctx[b])
		a.wo.Grad.Add(tmpWG)
		tensor.MatMul(dctx, dy, a.wo.W)

		// C = A·V: dA = dC·Vᵀ; dV = Aᵀ·dC.
		tensor.MatMulTB(datt, dctx, a.v[b])
		tensor.MatMulTA(a.dv[b], a.att[b], dctx)

		// A = softmax(S): dS_ij = A_ij (dA_ij - sum_k dA_ik A_ik).
		for r := 0; r < seq; r++ {
			var dot float64
			for c := 0; c < seq; c++ {
				dot += datt.At(r, c) * a.att[b].At(r, c)
			}
			for c := 0; c < seq; c++ {
				dscore.Set(r, c, a.att[b].At(r, c)*(datt.At(r, c)-dot))
			}
		}
		dscore.Scale(scale)

		// S = Q·Kᵀ: dQ = dS·K; dK = dSᵀ·Q.
		tensor.MatMul(a.dq[b], dscore, a.k[b])
		tensor.MatMulTA(a.dk[b], dscore, a.q[b])
		coop.Yield()
	}
	hook(a.wo)

	// Q = X·Wqᵀ etc.: dW += dᵀ·X, last projection first.
	for _, pr := range []struct {
		d []*tensor.Matrix
		p *Param
	}{{a.dv, a.wv}, {a.dk, a.wk}, {a.dq, a.wq}} {
		for b := 0; b < batch; b++ {
			tensor.MatMulTA(tmpWG, pr.d[b], a.x[b])
			pr.p.Grad.Add(tmpWG)
			coop.Yield()
		}
		hook(pr.p)
	}

	// dX = dQ·Wq + dK·Wk + dV·Wv.
	for b := 0; b < batch; b++ {
		acc.Zero()
		for _, pr := range []struct {
			d *tensor.Matrix
			p *Param
		}{{a.dq[b], a.wq}, {a.dk[b], a.wk}, {a.dv[b], a.wv}} {
			tensor.MatMul(dxb, pr.d, pr.p.W)
			acc.Add(dxb)
		}
		copy(a.dx.Data[b*seq*a.dim:(b+1)*seq*a.dim], acc.Data)
		coop.Yield()
	}
	return a.dx
}
