package compress

// StateVector is one named cross-step state array of a compressor — an
// error-feedback residual, a momentum-correction accumulator, a reused
// low-rank factor. The Data slice is a live view into the compressor: a
// checkpoint copies it out, a restore copies saved values back in. Views are
// valid only between steps (no Encode/Compress/CompressStep in flight).
type StateVector struct {
	Name string
	Data []float64
}

// Stateful is implemented by compressors that carry state across steps.
// Without it a "resume from checkpoint" silently diverges from the
// uninterrupted run: error-feedback residuals re-inject dropped gradient
// mass on later steps, DGC's momentum correction accumulates locally, and
// the low-rank methods reuse the previous step's factors — all of which a
// faithful continuation must restore, not zero.
//
// StateVectors returns every such array with a stable name, so checkpoints
// key entries as "<compressor key>/<vector name>". Restoration copies into
// the returned views after constructing a fresh compressor with identical
// geometry; lengths must match exactly.
type Stateful interface {
	StateVectors() []StateVector
}

// StateVectors returns Sign-SGD's error-feedback residual.
func (s *Sign) StateVectors() []StateVector {
	return []StateVector{{Name: "ef", Data: s.err}}
}

// StateVectors returns Top-k's error-feedback residual.
func (t *TopK) StateVectors() []StateVector {
	return []StateVector{{Name: "ef", Data: t.err}}
}

// StateVectors returns DGC's momentum-correction state: the momentum
// accumulator u and the velocity (gradient) accumulator v.
func (d *DGC) StateVectors() []StateVector {
	return []StateVector{{Name: "u", Data: d.u}, {Name: "v", Data: d.v}}
}

// StateVectors returns Power-SGD's cross-step state: the error-feedback
// residual and the reused query factor Q (P is recomputed every step from
// the adjusted gradient, but restoring it costs nothing and keeps the
// snapshot self-describing).
func (ps *PowerSGD) StateVectors() []StateVector {
	return []StateVector{
		{Name: "ef", Data: ps.err.Data},
		{Name: "q", Data: ps.q.Data},
		{Name: "p", Data: ps.p.Data},
	}
}

// StateVectors returns ACP-SGD's cross-step state: the error-feedback
// residual and both low-rank factors — query reuse alternates which factor
// carries over between the P and Q parities, so both must survive a restart.
func (a *ACP) StateVectors() []StateVector {
	return []StateVector{
		{Name: "ef", Data: a.err.Data},
		{Name: "p", Data: a.p.Data},
		{Name: "q", Data: a.q.Data},
	}
}

var (
	_ Stateful = (*Sign)(nil)
	_ Stateful = (*TopK)(nil)
	_ Stateful = (*DGC)(nil)
	_ Stateful = (*PowerSGD)(nil)
	_ Stateful = (*ACP)(nil)
)
