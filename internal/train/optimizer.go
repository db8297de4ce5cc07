// Package train implements distributed data-parallel training over the nn,
// compress and comm substrates: a momentum-SGD optimizer with the paper's
// warmup + step-decay schedule (§V-A), wait-free back-propagation driven by
// per-parameter gradient hooks, tensor fusion with byte-budgeted buffers
// (compressed buffers scaled by the compression rate, §IV-B), and one
// aggregation strategy per method (S-SGD, Sign-SGD, Top-k, Power-SGD,
// ACP-SGD).
package train

import (
	"fmt"
	"math"

	"acpsgd/internal/nn"
	"acpsgd/internal/tensor"
)

// Schedule is the learning-rate schedule of the paper's convergence setup:
// linear warmup over the first WarmupEpochs epochs, then either
// multiplicative decays at each epoch in DecayEpochs (the paper's §V-A
// setting) or, when CosineEpochs is set, cosine annealing to zero over that
// horizon.
type Schedule struct {
	BaseLR       float64
	WarmupEpochs int
	DecayEpochs  []int
	DecayFactor  float64 // 0 defaults to 0.1 (the paper's "decay by 10")
	// CosineEpochs, when positive, replaces step decay with cosine
	// annealing from BaseLR to 0 across [WarmupEpochs, CosineEpochs).
	CosineEpochs int
}

// LR returns the learning rate for a (0-based) epoch.
func (s Schedule) LR(epoch int) float64 {
	lr := s.BaseLR
	if s.WarmupEpochs > 0 && epoch < s.WarmupEpochs {
		return lr * float64(epoch+1) / float64(s.WarmupEpochs)
	}
	if s.CosineEpochs > 0 {
		span := s.CosineEpochs - s.WarmupEpochs
		if span <= 0 {
			return lr
		}
		pos := epoch - s.WarmupEpochs
		if pos >= span {
			return 0
		}
		return lr * 0.5 * (1 + math.Cos(math.Pi*float64(pos)/float64(span)))
	}
	factor := s.DecayFactor
	if factor == 0 {
		factor = 0.1
	}
	for _, de := range s.DecayEpochs {
		if epoch >= de {
			lr *= factor
		}
	}
	return lr
}

// SGD is stochastic gradient descent with momentum and optional weight
// decay, applied to the aggregated (global mean) gradient. Because every
// worker applies identical updates to identical replicas, the replicas stay
// bit-wise synchronized — the invariant data-parallel S-SGD relies on.
type SGD struct {
	momentum    float64
	weightDecay float64
	clipNorm    float64 // 0 disables clipping
	lr          float64
	velocity    map[*nn.Param]*tensor.Matrix
}

// NewSGD creates an optimizer with the given momentum and weight decay.
func NewSGD(momentum, weightDecay float64) *SGD {
	return &SGD{
		momentum:    momentum,
		weightDecay: weightDecay,
		velocity:    make(map[*nn.Param]*tensor.Matrix),
	}
}

// SetLR sets the learning rate for subsequent Step calls.
func (o *SGD) SetLR(lr float64) { o.lr = lr }

// LR returns the current learning rate.
func (o *SGD) LR() float64 { return o.lr }

// SetClipNorm enables global gradient-norm clipping (0 disables). Clipping
// is applied to the aggregated gradient before the momentum update; because
// every replica sees the same aggregated gradient, clipping preserves
// replica synchronization.
func (o *SGD) SetClipNorm(c float64) { o.clipNorm = c }

// Velocity returns the live momentum tensor for p, or nil if no Step has
// touched it yet (zero velocity). The returned matrix is the optimizer's
// own state; callers snapshot by copying, never by aliasing.
func (o *SGD) Velocity(p *nn.Param) *tensor.Matrix { return o.velocity[p] }

// SetVelocity overwrites p's momentum state with a copy of data (length must
// match the parameter), creating the slot if the optimizer has not stepped
// yet — the restore half of checkpointing: a resumed run continues the
// momentum trajectory instead of restarting it from zero.
func (o *SGD) SetVelocity(p *nn.Param, data []float64) error {
	if len(data) != len(p.Grad.Data) {
		return fmt.Errorf("train: velocity for %s has %d elements, want %d", p.Name, len(data), len(p.Grad.Data))
	}
	v, ok := o.velocity[p]
	if !ok {
		v = tensor.New(p.Grad.Rows, p.Grad.Cols)
		o.velocity[p] = v
	}
	copy(v.Data, data)
	return nil
}

// Step applies one update: v ← μ·v + (g + wd·w); w ← w − lr·v.
func (o *SGD) Step(params []*nn.Param) error {
	if o.lr < 0 {
		return fmt.Errorf("train: negative learning rate %v", o.lr)
	}
	scale := 1.0
	if o.clipNorm > 0 {
		var sq float64
		for _, p := range params {
			for _, g := range p.Grad.Data {
				sq += g * g
			}
		}
		if norm := math.Sqrt(sq); norm > o.clipNorm {
			scale = o.clipNorm / norm
		}
	}
	for _, p := range params {
		v, ok := o.velocity[p]
		if !ok {
			v = tensor.New(p.Grad.Rows, p.Grad.Cols)
			o.velocity[p] = v
		}
		for i, g := range p.Grad.Data {
			g *= scale
			if o.weightDecay != 0 {
				g += o.weightDecay * p.W.Data[i]
			}
			v.Data[i] = o.momentum*v.Data[i] + g
			p.W.Data[i] -= o.lr * v.Data[i]
		}
	}
	return nil
}
