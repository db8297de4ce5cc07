// Package nn is the deep-learning substrate for the convergence experiments:
// a small layer-wise neural network library with explicit forward/backward
// passes. It plays the role PyTorch plays in the paper, with the one property
// the paper's system section depends on: gradients become available
// layer-by-layer in reverse order during back-propagation, and a hook fires
// per parameter tensor the moment its gradient is ready (the attachment
// point for wait-free back-propagation, §II-A.2 and §IV-C).
//
// Data layout: activations are tensor.Matrix values of shape
// [batch, features]; image layers carry (channels, height, width) metadata
// and interpret the feature axis as C*H*W in channel-major order.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"acpsgd/internal/coop"
	"acpsgd/internal/tensor"
)

// Param is one learnable parameter tensor with its gradient. Weight matrices
// keep their natural (out, in) matrix shape, which is what the low-rank
// compressors factorize; bias vectors are marked IsVector and bypass
// compression, as in the paper's implementation (§IV-C).
type Param struct {
	Name     string
	W        *tensor.Matrix
	Grad     *tensor.Matrix
	IsVector bool
}

// NumElems returns the parameter element count.
func (p *Param) NumElems() int { return p.W.NumElems() }

// Layer is a differentiable module. Backward must be called after Forward
// with the upstream gradient and returns the input gradient; parameter
// gradients are written into the layer's Params (mean over the batch).
type Layer interface {
	Name() string
	Forward(x *tensor.Matrix) *tensor.Matrix
	Backward(dout *tensor.Matrix) *tensor.Matrix
	Params() []*Param
}

// GradHook is invoked during back-propagation as soon as a parameter's
// gradient is fully computed (wait-free back-propagation attachment point).
type GradHook func(p *Param)

// hookedLayer is implemented by the composite layers (Residual,
// Positionwise, SelfAttention), whose backward pass reports each parameter
// the moment its sub-module's gradient lands instead of when the whole block
// returns. The order is the one Model.BackwardHooked promises for any layer:
// the reverse of Params(). hook is never nil (see noHook).
type hookedLayer interface {
	backwardHooked(dout *tensor.Matrix, hook GradHook) *tensor.Matrix
}

// noHook is the GradHook of a backward pass nobody listens to.
func noHook(*Param) {}

// backwardLayer runs one layer's backward pass and reports its parameters to
// hook, last parameter first.
func backwardLayer(l Layer, dout *tensor.Matrix, hook GradHook) *tensor.Matrix {
	if h, ok := l.(hookedLayer); ok {
		return h.backwardHooked(dout, hook)
	}
	dout = l.Backward(dout)
	ps := l.Params()
	for j := len(ps) - 1; j >= 0; j-- {
		hook(ps[j])
	}
	return dout
}

// backwardStack back-propagates through a composite layer's inner stack.
func backwardStack(inner []Layer, d *tensor.Matrix, hook GradHook) *tensor.Matrix {
	for i := len(inner) - 1; i >= 0; i-- {
		d = backwardLayer(inner[i], d, hook)
	}
	return d
}

// LayerHook is invoked during back-propagation after one layer's backward
// pass and all of its parameter GradHooks have completed. li is the layer's
// index in forward order, so hooks fire with li counting down and li == 0
// marks the moment the model's last gradient has landed — the earliest
// point a trainer can seal and launch its final communication buckets,
// without waiting for Backward to unwind.
type LayerHook func(li int, l Layer)

// Model is a sequential stack of layers.
type Model struct {
	layers []Layer
	params []*Param
}

// NewModel builds a model from layers in forward order.
func NewModel(layers ...Layer) *Model {
	m := &Model{layers: layers}
	for _, l := range layers {
		m.params = append(m.params, l.Params()...)
	}
	return m
}

// Layers returns the layer stack.
func (m *Model) Layers() []Layer { return m.layers }

// Params returns every learnable parameter in forward order.
func (m *Model) Params() []*Param { return m.params }

// NumParams returns the total number of scalar parameters.
func (m *Model) NumParams() int {
	n := 0
	for _, p := range m.params {
		n += p.NumElems()
	}
	return n
}

// Forward runs the forward pass and returns the logits.
func (m *Model) Forward(x *tensor.Matrix) *tensor.Matrix {
	for _, l := range m.layers {
		x = l.Forward(x)
	}
	return x
}

// Backward runs the backward pass from the loss gradient. If hook is
// non-nil it is invoked for every parameter as soon as its gradient has
// landed, in reverse layer order — gradients of later layers are ready
// first, exactly the WFBP schedule of Fig. 1(b).
func (m *Model) Backward(dout *tensor.Matrix, hook GradHook) {
	m.BackwardHooked(dout, hook, nil)
}

// BackwardHooked is Backward with an additional per-layer readiness hook:
// after each layer's backward completes and its parameter hooks have fired,
// layerHook (when non-nil) receives the layer. Either hook may be nil.
//
// Parameters are reported in strict "last parameter first" order (a layer's
// in reverse declaration order); composite layers report each sub-module's
// parameters as its gradient lands rather than at the end of the block. Each
// layer boundary is a cooperative yield point (package coop): a hook that
// just launched a collective gets its communication goroutine run at once,
// and layers without a matmul still let the communication stream in.
func (m *Model) BackwardHooked(dout *tensor.Matrix, hook GradHook, layerHook LayerHook) {
	if hook == nil {
		hook = noHook
	}
	for i := len(m.layers) - 1; i >= 0; i-- {
		l := m.layers[i]
		dout = backwardLayer(l, dout, hook)
		if layerHook != nil {
			layerHook(i, l)
		}
		coop.Yield()
	}
}

// ZeroGrads clears all parameter gradients.
func (m *Model) ZeroGrads() {
	for _, p := range m.params {
		p.Grad.Zero()
	}
}

// CopyWeightsFrom copies all weights from src (shapes must match); used to
// give every data-parallel replica identical initial weights.
func (m *Model) CopyWeightsFrom(src *Model) error {
	if len(m.params) != len(src.params) {
		return fmt.Errorf("nn: model param count mismatch %d vs %d", len(m.params), len(src.params))
	}
	for i, p := range m.params {
		sp := src.params[i]
		if p.W.Rows != sp.W.Rows || p.W.Cols != sp.W.Cols {
			return fmt.Errorf("nn: param %q shape mismatch", p.Name)
		}
		p.W.CopyFrom(sp.W)
	}
	return nil
}

// heInit fills w with He-normal values: N(0, sqrt(2/fanIn)).
func heInit(w *tensor.Matrix, fanIn int, rng *rand.Rand) {
	std := math.Sqrt(2.0 / float64(fanIn))
	w.Randomize(rng, std)
}
