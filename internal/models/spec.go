// Package models provides two things:
//
//  1. Architecture tables (ModelSpec) for the performance simulator: the
//     per-parameter-tensor matricized shapes and per-layer FLOPs of the
//     models the paper benchmarks (ResNet-50/152, BERT-Base/Large, plus
//     VGG-16 and ResNet-18). Parameter counts and the Table I compression
//     ratios are reproduced from these tables, not hard-coded.
//  2. Small trainable models (MiniVGG, MiniResNet, MLP) for the convergence
//     experiments — CPU-scale stand-ins for the paper's VGG-16/ResNet-18 on
//     CIFAR-10 (synthetic data, float64 on CPU; see package data).
package models

import (
	"fmt"
)

// TensorSpec describes one parameter tensor: its matricized shape (the view
// the low-rank compressors factorize; Rows==1 or Cols==1 marks a vector that
// stays uncompressed) and the forward FLOPs per example attributable to its
// layer (backward is modeled as 2x forward, the standard estimate).
type TensorSpec struct {
	Name     string
	Rows     int
	Cols     int
	FwdFLOPs float64
}

// Elems returns the number of scalar parameters.
func (t TensorSpec) Elems() int { return t.Rows * t.Cols }

// IsMatrix reports whether the tensor is compressed as a matrix.
func (t TensorSpec) IsMatrix() bool { return t.Rows > 1 && t.Cols > 1 }

// effRank caps a requested rank at min(Rows, Cols).
func (t TensorSpec) effRank(rank int) int {
	r := rank
	if r > t.Rows {
		r = t.Rows
	}
	if r > t.Cols {
		r = t.Cols
	}
	if r < 1 {
		r = 1
	}
	return r
}

// ModelSpec is the simulator-facing description of a DNN.
type ModelSpec struct {
	Name string
	// Tensors in forward order; back-propagation produces their gradients
	// in reverse order.
	Tensors []TensorSpec
	// DefaultBatch is the paper's per-GPU batch size for this model
	// (Table I setup: 64/32/32/8).
	DefaultBatch int
	// SeqLen is the input sequence length for transformers (64 in §III-A).
	SeqLen int
	// RefComputeSec is the calibrated FF&BP wall-clock (seconds) of one
	// iteration at DefaultBatch on the paper's RTX 2080 Ti — the constant
	// that anchors the simulator's compute model to the testbed.
	RefComputeSec float64
	// DefaultRank is the paper's Power-SGD/ACP-SGD rank for this model
	// (4 for convnets, 32 for BERTs).
	DefaultRank int
	// ActBytesPerExample estimates activation memory per example (forward
	// caches kept for backward), used by the simulator's OOM check.
	ActBytesPerExample float64
}

// NumParams returns the total number of scalar parameters.
func (m *ModelSpec) NumParams() int {
	n := 0
	for _, t := range m.Tensors {
		n += t.Elems()
	}
	return n
}

// MatrixParams returns the number of parameters in matrix-shaped tensors.
func (m *ModelSpec) MatrixParams() int {
	n := 0
	for _, t := range m.Tensors {
		if t.IsMatrix() {
			n += t.Elems()
		}
	}
	return n
}

// VectorParams returns the number of parameters in vector-shaped tensors.
func (m *ModelSpec) VectorParams() int { return m.NumParams() - m.MatrixParams() }

// TotalFwdFLOPs returns per-example forward FLOPs.
func (m *ModelSpec) TotalFwdFLOPs() float64 {
	var f float64
	for _, t := range m.Tensors {
		f += t.FwdFLOPs
	}
	return f
}

// PowerCompressedElems returns the per-iteration element count Power-SGD
// communicates: r(n+m) per matrix tensor (both P and Q) plus all vector
// parameters uncompressed. This is the denominator of Table I's ratios.
func (m *ModelSpec) PowerCompressedElems(rank int) int {
	n := 0
	for _, t := range m.Tensors {
		if !t.IsMatrix() {
			n += t.Elems()
			continue
		}
		r := t.effRank(rank)
		n += r * (t.Rows + t.Cols)
	}
	return n
}

// ACPPayloadElems returns the per-iteration element count ACP-SGD
// communicates on a P step (odd=true) or Q step: r·n or r·m per matrix
// tensor plus vectors — half of Power-SGD on average (§IV-A).
func (m *ModelSpec) ACPPayloadElems(rank int, odd bool) int {
	n := 0
	for _, t := range m.Tensors {
		if !t.IsMatrix() {
			n += t.Elems()
			continue
		}
		r := t.effRank(rank)
		if odd {
			n += r * t.Rows
		} else {
			n += r * t.Cols
		}
	}
	return n
}

// CompressionRatio returns NumParams / PowerCompressedElems(rank), the
// Table I "Power-SGD" column.
func (m *ModelSpec) CompressionRatio(rank int) float64 {
	return float64(m.NumParams()) / float64(m.PowerCompressedElems(rank))
}

// String summarizes the model.
func (m *ModelSpec) String() string {
	return fmt.Sprintf("%s (%.1fM params, %d tensors)", m.Name, float64(m.NumParams())/1e6, len(m.Tensors))
}

// ByName returns a benchmark model spec by its paper name.
func ByName(name string) (*ModelSpec, error) {
	switch name {
	case "resnet50", "ResNet-50":
		return ResNet50(), nil
	case "resnet152", "ResNet-152":
		return ResNet152(), nil
	case "bert-base", "BERT-Base":
		return BERTBase(), nil
	case "bert-large", "BERT-Large":
		return BERTLarge(), nil
	case "vgg16", "VGG-16":
		return VGG16(), nil
	case "resnet18", "ResNet-18":
		return ResNet18(), nil
	default:
		return nil, fmt.Errorf("models: unknown model %q", name)
	}
}

// Benchmarks returns the four models of the paper's throughput evaluation in
// Table I order.
func Benchmarks() []*ModelSpec {
	return []*ModelSpec{ResNet50(), ResNet152(), BERTBase(), BERTLarge()}
}
