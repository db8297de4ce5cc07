package nn

import (
	"math"

	"acpsgd/internal/tensor"
)

// ReLU is the rectified linear activation.
type ReLU struct {
	name string
	mask []bool
	y    *tensor.Matrix
	dx   *tensor.Matrix
}

var _ Layer = (*ReLU)(nil)

// NewReLU builds a ReLU layer.
func NewReLU(name string) *ReLU { return &ReLU{name: name} }

// Name returns the layer name.
func (r *ReLU) Name() string { return r.name }

// Params returns nil: activations are parameter-free.
func (r *ReLU) Params() []*Param { return nil }

// Forward applies max(0, x).
func (r *ReLU) Forward(x *tensor.Matrix) *tensor.Matrix {
	n := x.NumElems()
	if cap(r.mask) < n {
		r.mask = make([]bool, n)
	}
	r.mask = r.mask[:n]
	if r.y == nil || r.y.Rows != x.Rows || r.y.Cols != x.Cols {
		r.y = tensor.New(x.Rows, x.Cols)
	}
	for i, v := range x.Data {
		if v > 0 {
			r.y.Data[i] = v
			r.mask[i] = true
		} else {
			r.y.Data[i] = 0
			r.mask[i] = false
		}
	}
	return r.y
}

// Backward gates the upstream gradient by the activation mask.
func (r *ReLU) Backward(dout *tensor.Matrix) *tensor.Matrix {
	if r.dx == nil || r.dx.Rows != dout.Rows || r.dx.Cols != dout.Cols {
		r.dx = tensor.New(dout.Rows, dout.Cols)
	}
	for i, v := range dout.Data {
		if r.mask[i] {
			r.dx.Data[i] = v
		} else {
			r.dx.Data[i] = 0
		}
	}
	return r.dx
}

// Tanh is the hyperbolic-tangent activation.
type Tanh struct {
	name string
	y    *tensor.Matrix
	dx   *tensor.Matrix
}

var _ Layer = (*Tanh)(nil)

// NewTanh builds a Tanh layer.
func NewTanh(name string) *Tanh { return &Tanh{name: name} }

// Name returns the layer name.
func (t *Tanh) Name() string { return t.name }

// Params returns nil.
func (t *Tanh) Params() []*Param { return nil }

// Forward applies tanh element-wise.
func (t *Tanh) Forward(x *tensor.Matrix) *tensor.Matrix {
	if t.y == nil || t.y.Rows != x.Rows || t.y.Cols != x.Cols {
		t.y = tensor.New(x.Rows, x.Cols)
	}
	for i, v := range x.Data {
		t.y.Data[i] = math.Tanh(v)
	}
	return t.y
}

// Backward multiplies by 1 - tanh².
func (t *Tanh) Backward(dout *tensor.Matrix) *tensor.Matrix {
	if t.dx == nil || t.dx.Rows != dout.Rows || t.dx.Cols != dout.Cols {
		t.dx = tensor.New(dout.Rows, dout.Cols)
	}
	for i, v := range dout.Data {
		y := t.y.Data[i]
		t.dx.Data[i] = v * (1 - y*y)
	}
	return t.dx
}

// Residual wraps an inner layer stack with an identity skip connection:
// y = x + f(x). Input and output widths of the inner stack must match.
// This is the structural element that distinguishes the ResNet-family
// models from the plain VGG-style stacks in the convergence experiments.
type Residual struct {
	name  string
	inner []Layer
	dx    *tensor.Matrix
}

var _ Layer = (*Residual)(nil)

// NewResidual builds a residual block around the inner layers.
func NewResidual(name string, inner ...Layer) *Residual {
	return &Residual{name: name, inner: inner}
}

// Name returns the block name.
func (r *Residual) Name() string { return r.name }

// Params returns the inner layers' parameters.
func (r *Residual) Params() []*Param {
	var out []*Param
	for _, l := range r.inner {
		out = append(out, l.Params()...)
	}
	return out
}

// Forward computes x + f(x).
func (r *Residual) Forward(x *tensor.Matrix) *tensor.Matrix {
	y := x
	for _, l := range r.inner {
		y = l.Forward(y)
	}
	if y.Rows != x.Rows || y.Cols != x.Cols {
		panic("nn: residual inner stack must preserve shape")
	}
	out := tensor.New(x.Rows, x.Cols)
	for i := range out.Data {
		out.Data[i] = x.Data[i] + y.Data[i]
	}
	return out
}

// Backward propagates through the inner stack and adds the skip gradient.
func (r *Residual) Backward(dout *tensor.Matrix) *tensor.Matrix {
	return r.backwardHooked(dout, noHook)
}

func (r *Residual) backwardHooked(dout *tensor.Matrix, hook GradHook) *tensor.Matrix {
	d := backwardStack(r.inner, dout, hook)
	if r.dx == nil || r.dx.Rows != dout.Rows || r.dx.Cols != dout.Cols {
		r.dx = tensor.New(dout.Rows, dout.Cols)
	}
	for i := range r.dx.Data {
		r.dx.Data[i] = dout.Data[i] + d.Data[i]
	}
	return r.dx
}
