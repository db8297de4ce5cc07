package train

import (
	"encoding/gob"
	"fmt"
	"io"

	"acpsgd/internal/nn"
)

// Checkpoint is a serializable snapshot of one replica's training state,
// keyed by parameter name. Beyond the weights it carries everything a
// faithful continuation needs: the optimizer's momentum, the step counter,
// and every stateful compressor's cross-step vectors (error-feedback
// residuals, DGC momentum correction, reused low-rank factors). The elastic
// runtime keeps one per member in memory and restores from it on recovery.
type Checkpoint struct {
	Params map[string]checkpointTensor
	// Momentum is the optimizer velocity by parameter name. Parameters
	// the optimizer never touched are absent and restore as zero velocity.
	Momentum map[string]checkpointTensor
	// Residuals holds compressor state vectors keyed
	// "<compressor key>/<vector name>", where the trainer's compressor keys
	// are "p:<param name>" (per-parameter state) and "b:<buffer index>"
	// (per-buffer state).
	Residuals map[string][]float64
	// Step is the 0-based training step counter at capture time.
	Step int
}

type checkpointTensor struct {
	Rows, Cols int
	Data       []float64
}

// Capture snapshots the model's weights, the optimizer's momentum (opt may
// be nil for a weights-only snapshot) and the step counter into a fresh
// Checkpoint. Compressor residuals are added by the caller (the worker owns
// the compressor states).
func Capture(model *nn.Model, opt *SGD, step int) (*Checkpoint, error) {
	ck := &Checkpoint{
		Params:    make(map[string]checkpointTensor, len(model.Params())),
		Momentum:  make(map[string]checkpointTensor),
		Residuals: make(map[string][]float64),
		Step:      step,
	}
	for _, p := range model.Params() {
		if _, dup := ck.Params[p.Name]; dup {
			return nil, fmt.Errorf("train: duplicate parameter name %q", p.Name)
		}
		data := make([]float64, len(p.W.Data))
		copy(data, p.W.Data)
		ck.Params[p.Name] = checkpointTensor{Rows: p.W.Rows, Cols: p.W.Cols, Data: data}
		if opt != nil {
			if v := opt.Velocity(p); v != nil {
				vd := make([]float64, len(v.Data))
				copy(vd, v.Data)
				ck.Momentum[p.Name] = checkpointTensor{Rows: v.Rows, Cols: v.Cols, Data: vd}
			}
		}
	}
	return ck, nil
}

// Apply restores the checkpoint into model (weights) and, when opt is
// non-nil, the optimizer (momentum). Every model parameter must be present
// in Params with a matching shape; parameters absent from Momentum restore
// as zero velocity.
func (ck *Checkpoint) Apply(model *nn.Model, opt *SGD) error {
	for _, p := range model.Params() {
		t, ok := ck.Params[p.Name]
		if !ok {
			return fmt.Errorf("train: checkpoint missing parameter %q", p.Name)
		}
		if t.Rows != p.W.Rows || t.Cols != p.W.Cols || len(t.Data) != len(p.W.Data) {
			return fmt.Errorf("train: checkpoint shape mismatch for %q: %dx%d vs %dx%d",
				p.Name, t.Rows, t.Cols, p.W.Rows, p.W.Cols)
		}
		copy(p.W.Data, t.Data)
	}
	if opt == nil {
		return nil
	}
	for _, p := range model.Params() {
		v, ok := ck.Momentum[p.Name]
		if !ok {
			continue
		}
		if err := opt.SetVelocity(p, v.Data); err != nil {
			return fmt.Errorf("train: checkpoint momentum for %q: %w", p.Name, err)
		}
	}
	return nil
}

// Write gob-encodes the checkpoint.
func (ck *Checkpoint) Write(w io.Writer) error {
	if err := gob.NewEncoder(w).Encode(ck); err != nil {
		return fmt.Errorf("train: encode checkpoint: %w", err)
	}
	return nil
}

// ReadCheckpoint decodes a checkpoint written by Write.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	var ck Checkpoint
	if err := gob.NewDecoder(r).Decode(&ck); err != nil {
		return nil, fmt.Errorf("train: decode checkpoint: %w", err)
	}
	return &ck, nil
}
