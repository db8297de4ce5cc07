package compress

import (
	"fmt"
	"math/rand"

	"acpsgd/internal/tensor"
)

// lowRankShape captures the matricized view of a parameter tensor: an n x m
// gradient matrix compressed through rank-r factors P (n x r) and Q (m x r).
// The effective rank is capped at min(n, m) as in the paper's
// implementation.
type lowRankShape struct {
	n, m, r int
}

func newLowRankShape(n, m, rank int) lowRankShape {
	r := rank
	if r > n {
		r = n
	}
	if r > m {
		r = m
	}
	if r < 1 {
		r = 1
	}
	return lowRankShape{n: n, m: m, r: r}
}

// PCount returns the number of elements in the P factor.
func (s lowRankShape) PCount() int { return s.n * s.r }

// QCount returns the number of elements in the Q factor.
func (s lowRankShape) QCount() int { return s.m * s.r }

// PowerSGD implements Algorithm 1 of the paper (Vogels et al.): one step of
// power iteration per training step with query reuse, plus error feedback.
// Its communication is additive (P and Q are dense and summable) but
// *blocking*: aggregating P must complete before Q can be computed, the
// §III-C property that breaks WFBP overlap.
type PowerSGD struct {
	shape lowRankShape
	p     *tensor.Matrix // n x r
	q     *tensor.Matrix // m x r
	err   *tensor.Matrix // n x m error feedback
	madj  *tensor.Matrix // scratch: gradient + error
	prod  *tensor.Matrix // scratch for P·Qᵀ in the error update
	useEF bool
}

var _ BlockingCompressor = (*PowerSGD)(nil)

// NewPowerSGD creates per-tensor Power-SGD state for an n x m gradient with
// the given target rank. Q is initialized from an i.i.d. standard normal
// distribution with a tensor-derived seed shared by all workers (§IV-A).
func NewPowerSGD(n, m, rank int, useEF bool, tensorID int64) *PowerSGD {
	shape := newLowRankShape(n, m, rank)
	ps := &PowerSGD{
		shape: shape,
		p:     tensor.New(shape.n, shape.r),
		q:     tensor.New(shape.m, shape.r),
		err:   tensor.New(shape.n, shape.m),
		madj:  tensor.New(shape.n, shape.m),
		prod:  tensor.New(shape.n, shape.m),
		useEF: useEF,
	}
	rng := newSeededRNG(tensorID)
	ps.q.Randomize(rng, 1)
	return ps
}

// Rank returns the effective rank.
func (ps *PowerSGD) Rank() int { return ps.shape.r }

// CompressStep runs one full Power-SGD step on the flattened n x m gradient:
//
//	P ← (M+E)·Q_{t-1}; P ← AllReduce(P); P ← Orthogonalize(P);
//	Q ← (M+E)ᵀ·P;      E ← (M+E) − P·Q_localᵀ; Q ← AllReduce(Q)/p;
//	M̂ ← P·Qᵀ
//
// The two interleaved all-reduce rounds are exactly the blocking structure
// of Fig. 4(a).
func (ps *PowerSGD) CompressStep(_ int, grad []float64, c Collectives) error {
	s := ps.shape
	if len(grad) != s.n*s.m {
		return fmt.Errorf("compress: PowerSGD grad length %d, want %d", len(grad), s.n*s.m)
	}
	m := tensor.FromSlice(s.n, s.m, grad)

	// M_adj = M + E.
	ps.madj.CopyFrom(m)
	if ps.useEF {
		ps.madj.Add(ps.err)
	}

	// P = M_adj * Q, then aggregate and orthogonalize. Orthogonalization is
	// scale-invariant, so sum (not mean) aggregation is fine, as in the
	// reference implementation.
	tensor.MatMul(ps.p, ps.madj, ps.q)
	if err := c.AllReduceSum(ps.p.Data); err != nil {
		return fmt.Errorf("compress: PowerSGD all-reduce P: %w", err)
	}
	tensor.Orthogonalize(ps.p)

	// Q = M_adjᵀ * P (local), error update against the local approximation,
	// then aggregate Q as a mean.
	tensor.MatMulTA(ps.q, ps.madj, ps.p)
	if ps.useEF {
		// E = M_adj − P·Q_localᵀ.
		ps.err.CopyFrom(ps.madj)
		tensor.MatMulTB(ps.prod, ps.p, ps.q)
		ps.err.Sub(ps.prod)
	}
	if err := c.AllReduceSum(ps.q.Data); err != nil {
		return fmt.Errorf("compress: PowerSGD all-reduce Q: %w", err)
	}
	ps.q.Scale(1 / float64(c.Size()))

	// Decompress the aggregated approximation into grad.
	tensor.MatMulTB(m, ps.p, ps.q)
	return nil
}

// ErrorNorm returns the Frobenius norm of the error memory (diagnostics).
func (ps *PowerSGD) ErrorNorm() float64 { return ps.err.FrobeniusNorm() }

// ACP implements the paper's contribution, ACP-SGD (Algorithms 1–2):
// alternate compressed Power-SGD. Odd steps orthogonalize the reused Q and
// compute/aggregate only P; even steps orthogonalize the reused P and
// compute/aggregate only Q. One matmul, one orthogonalization and one
// all-reduce per step — half of Power-SGD's compression and communication
// (§IV-A) — and the single all-reduce is additive and non-blocking, which is
// what unlocks WFBP and tensor fusion (§IV-B).
type ACP struct {
	shape lowRankShape
	p     *tensor.Matrix // n x r
	q     *tensor.Matrix // m x r
	err   *tensor.Matrix // n x m error feedback
	madj  *tensor.Matrix // scratch
	prod  *tensor.Matrix // scratch for P·Qᵀ

	useEF bool
	// reuse controls query reuse: when disabled (ablation of Fig. 7), the
	// reused factor is re-randomized every step instead of carrying over
	// the previous aggregation result.
	reuse bool
	rng   *rand.Rand
}

var _ AdditiveCompressor = (*ACP)(nil)

// NewACP creates per-tensor ACP-SGD state for an n x m gradient. P₀ and Q₀
// are initialized from a standard normal distribution with a shared
// tensor-derived seed; E₀ is zero (§IV-A).
func NewACP(n, m, rank int, useEF, reuse bool, tensorID int64) *ACP {
	shape := newLowRankShape(n, m, rank)
	a := &ACP{
		shape: shape,
		p:     tensor.New(shape.n, shape.r),
		q:     tensor.New(shape.m, shape.r),
		err:   tensor.New(shape.n, shape.m),
		madj:  tensor.New(shape.n, shape.m),
		prod:  tensor.New(shape.n, shape.m),
		useEF: useEF,
		reuse: reuse,
	}
	rng := newSeededRNG(tensorID)
	a.p.Randomize(rng, 1)
	a.q.Randomize(rng, 1)
	a.rng = rng
	return a
}

// Rank returns the effective rank.
func (a *ACP) Rank() int { return a.shape.r }

// oddStep reports whether this step aggregates P (odd) or Q (even). Step
// counting starts at 0 = odd to match t=1 in Algorithm 2.
func oddStep(step int) bool { return step%2 == 0 }

// PayloadLen alternates between |P| and |Q|.
func (a *ACP) PayloadLen(step int) int {
	if oddStep(step) {
		return a.shape.PCount()
	}
	return a.shape.QCount()
}

// Compress performs the local half of Algorithm 2 and returns the factor to
// aggregate:
//
//	odd  t: Q ← Orthogonalize(Q_{t-1}); P ← (M+E)·Q; E ← (M+E) − P·Qᵀ
//	even t: P ← Orthogonalize(P_{t-1}); Q ← (M+E)ᵀ·P; E ← (M+E) − P·Qᵀ
//
// The error update uses the local factor before aggregation, exactly as in
// Algorithm 2 (update E precedes the all-reduce).
func (a *ACP) Compress(step int, grad []float64) []float64 {
	s := a.shape
	if len(grad) != s.n*s.m {
		panic(fmt.Sprintf("compress: ACP grad length %d, want %d", len(grad), s.n*s.m))
	}
	m := tensor.FromSlice(s.n, s.m, grad)
	a.madj.CopyFrom(m)
	if a.useEF {
		a.madj.Add(a.err)
	}

	if oddStep(step) {
		if !a.reuse {
			a.q.Randomize(a.rng, 1)
		}
		tensor.Orthogonalize(a.q)
		tensor.MatMul(a.p, a.madj, a.q)
		if a.useEF {
			tensor.MatMulTB(a.prod, a.p, a.q)
			a.err.CopyFrom(a.madj)
			a.err.Sub(a.prod)
		}
		return a.p.Data
	}

	if !a.reuse {
		a.p.Randomize(a.rng, 1)
	}
	tensor.Orthogonalize(a.p)
	tensor.MatMulTA(a.q, a.madj, a.p)
	if a.useEF {
		tensor.MatMulTB(a.prod, a.p, a.q)
		a.err.CopyFrom(a.madj)
		a.err.Sub(a.prod)
	}
	return a.q.Data
}

// Finalize installs the aggregated factor (mean over workers) and writes the
// decompressed gradient P·Qᵀ over grad.
func (a *ACP) Finalize(step int, aggregated []float64, p int, grad []float64) {
	s := a.shape
	inv := 1 / float64(p)
	if oddStep(step) {
		if len(aggregated) != s.PCount() {
			panic(fmt.Sprintf("compress: ACP.Finalize P length %d, want %d", len(aggregated), s.PCount()))
		}
		for i, v := range aggregated {
			a.p.Data[i] = v * inv
		}
	} else {
		if len(aggregated) != s.QCount() {
			panic(fmt.Sprintf("compress: ACP.Finalize Q length %d, want %d", len(aggregated), s.QCount()))
		}
		for i, v := range aggregated {
			a.q.Data[i] = v * inv
		}
	}
	out := tensor.FromSlice(s.n, s.m, grad)
	tensor.MatMulTB(out, a.p, a.q)
}

// ErrorNorm returns the Frobenius norm of the error memory (diagnostics).
func (a *ACP) ErrorNorm() float64 { return a.err.FrobeniusNorm() }

// rankParam reads and range-checks a low-rank rank param from a
// defaults-merged param bag.
func rankParam(p Params) (int, error) {
	rank, err := p.Int("rank", 0)
	if err != nil {
		return 0, err
	}
	if rank < 1 {
		return 0, fmt.Errorf("param rank=%d: want rank >= 1", rank)
	}
	return rank, nil
}

// powerDefaults is the single source of Power-SGD's default params.
var powerDefaults = Params{
	"rank": "4",
	"ef":   "true",
}

// powerFactory registers Power-SGD (blocking low-rank power iteration).
type powerFactory struct{}

func (powerFactory) Info() MethodInfo {
	return MethodInfo{
		Name:     "power",
		Aliases:  []string{"powersgd", "power-sgd"},
		Pattern:  PatternBlocking,
		Scope:    ScopeMatrix,
		Defaults: powerDefaults,
	}
}

func (powerFactory) Validate(spec Spec) error {
	p := spec.Params.withDefaults(powerDefaults)
	if _, err := rankParam(p); err != nil {
		return err
	}
	_, err := p.Bool("ef", true)
	return err
}

func (powerFactory) New(spec Spec, t Tensor) (any, error) {
	p := spec.Params.withDefaults(powerDefaults)
	rank, err := rankParam(p)
	if err != nil {
		return nil, err
	}
	ef, err := p.Bool("ef", true)
	if err != nil {
		return nil, err
	}
	return NewPowerSGD(t.Rows, t.Cols, rank, ef, t.SharedSeed()), nil
}

// acpDefaults is the single source of ACP-SGD's default params.
var acpDefaults = Params{
	"rank":  "4",
	"ef":    "true",
	"reuse": "true",
}

// acpFactory registers ACP-SGD, the paper's contribution.
type acpFactory struct{}

func (acpFactory) Info() MethodInfo {
	return MethodInfo{
		Name:     "acp",
		Aliases:  []string{"acpsgd", "acp-sgd"},
		Pattern:  PatternAllReduce,
		Scope:    ScopeMatrix,
		Defaults: acpDefaults,
	}
}

func (acpFactory) Validate(spec Spec) error {
	p := spec.Params.withDefaults(acpDefaults)
	if _, err := rankParam(p); err != nil {
		return err
	}
	if _, err := p.Bool("ef", true); err != nil {
		return err
	}
	_, err := p.Bool("reuse", true)
	return err
}

func (acpFactory) New(spec Spec, t Tensor) (any, error) {
	p := spec.Params.withDefaults(acpDefaults)
	rank, err := rankParam(p)
	if err != nil {
		return nil, err
	}
	ef, err := p.Bool("ef", true)
	if err != nil {
		return nil, err
	}
	reuse, err := p.Bool("reuse", true)
	if err != nil {
		return nil, err
	}
	return NewACP(t.Rows, t.Cols, rank, ef, reuse, t.SharedSeed()), nil
}

func init() {
	Register(powerFactory{})
	Register(acpFactory{})
}
