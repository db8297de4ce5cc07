package nn

import (
	"fmt"

	"acpsgd/internal/tensor"
)

// Positionwise applies an inner layer stack independently to every dim-sized
// group of the feature axis by reshaping [batch, seq*dim] to
// [batch*seq, dim] — the transformer's position-wise feed-forward pattern.
type Positionwise struct {
	name    string
	dim     int
	inner   []Layer
	lastSeq int
}

var _ Layer = (*Positionwise)(nil)

// NewPositionwise wraps inner layers whose input width is dim.
func NewPositionwise(name string, dim int, inner ...Layer) *Positionwise {
	return &Positionwise{name: name, dim: dim, inner: inner}
}

// Name returns the layer name.
func (p *Positionwise) Name() string { return p.name }

// Params returns the inner parameters.
func (p *Positionwise) Params() []*Param {
	var out []*Param
	for _, l := range p.inner {
		out = append(out, l.Params()...)
	}
	return out
}

// Forward reshapes [batch, seq*dim] to [batch*seq, dim], applies the stack,
// and reshapes the result back to [batch, seq*outDim].
func (p *Positionwise) Forward(x *tensor.Matrix) *tensor.Matrix {
	if x.Cols%p.dim != 0 {
		panic(fmt.Sprintf("nn: %s width %d not a multiple of dim %d", p.name, x.Cols, p.dim))
	}
	batch := x.Rows
	seq := x.Cols / p.dim
	p.lastSeq = seq
	y := tensor.FromSlice(batch*seq, p.dim, x.Data)
	for _, l := range p.inner {
		y = l.Forward(y)
	}
	if y.Rows != batch*seq {
		panic(fmt.Sprintf("nn: %s inner stack changed row count", p.name))
	}
	return tensor.FromSlice(batch, seq*y.Cols, y.Data)
}

// Backward reshapes the upstream gradient to [batch*seq, outDim],
// backpropagates through the stack, and reshapes the input gradient back to
// [batch, seq*dim].
func (p *Positionwise) Backward(dout *tensor.Matrix) *tensor.Matrix {
	return p.backwardHooked(dout, noHook)
}

func (p *Positionwise) backwardHooked(dout *tensor.Matrix, hook GradHook) *tensor.Matrix {
	batch := dout.Rows
	seq := p.lastSeq
	if seq == 0 || dout.Cols%seq != 0 {
		panic(fmt.Sprintf("nn: %s backward before forward or bad shape", p.name))
	}
	d := backwardStack(p.inner, tensor.FromSlice(batch*seq, dout.Cols/seq, dout.Data), hook)
	return tensor.FromSlice(batch, seq*d.Cols, d.Data)
}
