package train

import (
	"bytes"
	"encoding/gob"
	"io"
	"math"
	"math/rand"
	"testing"

	"acpsgd/internal/nn"
	"acpsgd/internal/tensor"
)

// saveWeights writes a weights-only snapshot of model to w.
func saveWeights(w io.Writer, model *nn.Model) error {
	ck, err := Capture(model, nil, 0)
	if err != nil {
		return err
	}
	return ck.Write(w)
}

// loadWeights decodes a snapshot from r and restores its weights into model.
func loadWeights(r io.Reader, model *nn.Model) error {
	ck, err := ReadCheckpoint(r)
	if err != nil {
		return err
	}
	return ck.Apply(model, nil)
}

func TestCheckpointRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	src := nn.NewModel(
		nn.NewDense("fc1", 4, 8, rng),
		nn.NewReLU("relu"),
		nn.NewDense("fc2", 8, 3, rng),
	)
	var buf bytes.Buffer
	if err := saveWeights(&buf, src); err != nil {
		t.Fatal(err)
	}
	dst := nn.NewModel(
		nn.NewDense("fc1", 4, 8, rng), // different random init
		nn.NewReLU("relu"),
		nn.NewDense("fc2", 8, 3, rng),
	)
	if err := loadWeights(&buf, dst); err != nil {
		t.Fatal(err)
	}
	for i, p := range src.Params() {
		q := dst.Params()[i]
		for j := range p.W.Data {
			if p.W.Data[j] != q.W.Data[j] {
				t.Fatalf("param %s[%d] not restored", p.Name, j)
			}
		}
	}
}

func TestCheckpointShapeMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	src := nn.NewModel(nn.NewDense("fc", 4, 8, rng))
	var buf bytes.Buffer
	if err := saveWeights(&buf, src); err != nil {
		t.Fatal(err)
	}
	dst := nn.NewModel(nn.NewDense("fc", 4, 9, rng))
	if err := loadWeights(&buf, dst); err == nil {
		t.Fatal("expected shape mismatch error")
	}
}

func TestCheckpointMissingParam(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	src := nn.NewModel(nn.NewDense("a", 4, 4, rng))
	var buf bytes.Buffer
	if err := saveWeights(&buf, src); err != nil {
		t.Fatal(err)
	}
	dst := nn.NewModel(nn.NewDense("b", 4, 4, rng))
	if err := loadWeights(&buf, dst); err == nil {
		t.Fatal("expected missing-parameter error")
	}
}

func TestCheckpointDuplicateNameRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	model := nn.NewModel(
		nn.NewDense("same", 2, 2, rng),
		nn.NewDense("same", 2, 2, rng),
	)
	var buf bytes.Buffer
	if err := saveWeights(&buf, model); err == nil {
		t.Fatal("expected duplicate-name error")
	}
}

func TestCheckpointCorruptStream(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	model := nn.NewModel(nn.NewDense("fc", 2, 2, rng))
	if err := loadWeights(bytes.NewReader([]byte("garbage")), model); err == nil {
		t.Fatal("expected decode error")
	}
}

// TestCheckpointFullStateRoundTrip: Capture/Write/ReadCheckpoint/Apply must
// restore weights, optimizer momentum, step counter and residual vectors
// bit-exactly.
func TestCheckpointFullStateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	model := nn.NewModel(nn.NewDense("fc1", 4, 8, rng), nn.NewDense("fc2", 8, 3, rng))
	opt := NewSGD(0.9, 0)
	opt.SetLR(0.1)
	// A couple of optimizer steps on synthetic gradients builds velocity.
	for s := 0; s < 2; s++ {
		for _, p := range model.Params() {
			for j := range p.Grad.Data {
				p.Grad.Data[j] = rng.NormFloat64()
			}
		}
		if err := opt.Step(model.Params()); err != nil {
			t.Fatal(err)
		}
	}

	ck, err := Capture(model, opt, 17)
	if err != nil {
		t.Fatal(err)
	}
	ck.Residuals["b:0/ef"] = []float64{1.5, -2.25, 0.125}
	var buf bytes.Buffer
	if err := ck.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != 17 {
		t.Fatalf("step counter: got %d, want 17", got.Step)
	}
	for i, v := range got.Residuals["b:0/ef"] {
		if v != ck.Residuals["b:0/ef"][i] {
			t.Fatalf("residual[%d] not restored: %g", i, v)
		}
	}

	rng2 := rand.New(rand.NewSource(99))
	model2 := nn.NewModel(nn.NewDense("fc1", 4, 8, rng2), nn.NewDense("fc2", 8, 3, rng2))
	opt2 := NewSGD(0.9, 0)
	if err := got.Apply(model2, opt2); err != nil {
		t.Fatal(err)
	}
	for i, p := range model.Params() {
		q := model2.Params()[i]
		for j := range p.W.Data {
			if p.W.Data[j] != q.W.Data[j] {
				t.Fatalf("weight %s[%d] not restored", p.Name, j)
			}
		}
		v, v2 := opt.Velocity(p), opt2.Velocity(q)
		if v == nil || v2 == nil {
			t.Fatalf("velocity for %s missing after restore", p.Name)
		}
		for j := range v.Data {
			if v.Data[j] != v2.Data[j] {
				t.Fatalf("velocity %s[%d] not restored: %g vs %g", p.Name, j, v.Data[j], v2.Data[j])
			}
		}
	}
}

// TestCheckpointLegacyWeightOnly: a stream carrying only a Params map must
// decode — Momentum, Residuals and Step come back zero and Apply restores
// weights with zero velocity.
func TestCheckpointLegacyWeightOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	model := nn.NewModel(nn.NewDense("fc", 4, 4, rng))
	legacy := struct{ Params map[string]checkpointTensor }{
		Params: map[string]checkpointTensor{},
	}
	for _, p := range model.Params() {
		legacy.Params[p.Name] = checkpointTensor{
			Rows: p.W.Rows, Cols: p.W.Cols,
			Data: append([]float64(nil), p.W.Data...),
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(legacy); err != nil {
		t.Fatal(err)
	}

	ck, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatalf("legacy stream should decode: %v", err)
	}
	if ck.Step != 0 || len(ck.Momentum) != 0 || len(ck.Residuals) != 0 {
		t.Fatalf("legacy stream grew state: step=%d momentum=%d residuals=%d",
			ck.Step, len(ck.Momentum), len(ck.Residuals))
	}
	dst := nn.NewModel(nn.NewDense("fc", 4, 4, rand.New(rand.NewSource(13))))
	opt := NewSGD(0.9, 0)
	if err := ck.Apply(dst, opt); err != nil {
		t.Fatal(err)
	}
	for i, p := range model.Params() {
		q := dst.Params()[i]
		for j := range p.W.Data {
			if p.W.Data[j] != q.W.Data[j] {
				t.Fatalf("weight %s[%d] not restored from legacy stream", p.Name, j)
			}
		}
	}
}

func TestCosineSchedule(t *testing.T) {
	s := Schedule{BaseLR: 1.0, WarmupEpochs: 2, CosineEpochs: 10}
	if got := s.LR(0); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("warmup epoch 0: %v", got)
	}
	if got := s.LR(2); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("cosine start: %v", got)
	}
	mid := s.LR(6) // halfway through [2,10): cos(pi/2)=0 → 0.5
	if math.Abs(mid-0.5) > 1e-12 {
		t.Fatalf("cosine mid: %v", mid)
	}
	if got := s.LR(10); got != 0 {
		t.Fatalf("cosine end: %v", got)
	}
	// Monotone decreasing after warmup.
	prev := s.LR(2)
	for e := 3; e <= 10; e++ {
		cur := s.LR(e)
		if cur > prev+1e-12 {
			t.Fatalf("cosine not decreasing at %d: %v > %v", e, cur, prev)
		}
		prev = cur
	}
}

func TestCosineDegenerateSpan(t *testing.T) {
	s := Schedule{BaseLR: 1.0, WarmupEpochs: 5, CosineEpochs: 5}
	if got := s.LR(6); got != 1.0 {
		t.Fatalf("degenerate cosine span should hold base lr: %v", got)
	}
}

func TestGradientClipping(t *testing.T) {
	p := &nn.Param{
		Name: "w",
		W:    tensor.FromSlice(1, 2, []float64{0, 0}),
		Grad: tensor.FromSlice(1, 2, []float64{3, 4}), // norm 5
	}
	o := NewSGD(0, 0)
	o.SetLR(1)
	o.SetClipNorm(1) // scale by 1/5
	if err := o.Step([]*nn.Param{p}); err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.W.Data[0]+0.6) > 1e-12 || math.Abs(p.W.Data[1]+0.8) > 1e-12 {
		t.Fatalf("clipped update wrong: %v", p.W.Data)
	}
}

func TestGradientClippingNoEffectBelowThreshold(t *testing.T) {
	p := &nn.Param{
		Name: "w",
		W:    tensor.FromSlice(1, 1, []float64{0}),
		Grad: tensor.FromSlice(1, 1, []float64{0.5}),
	}
	o := NewSGD(0, 0)
	o.SetLR(1)
	o.SetClipNorm(10)
	if err := o.Step([]*nn.Param{p}); err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.W.Data[0]+0.5) > 1e-12 {
		t.Fatalf("clipping should be inactive: %v", p.W.Data)
	}
}

func TestTrainingWithClipNorm(t *testing.T) {
	hist := runMethod(t, "ssgd", func(c *Config) { c.ClipNorm = 5 })
	if hist.FinalTestAcc < 0.85 {
		t.Fatalf("clipped training should still converge: %.3f", hist.FinalTestAcc)
	}
}
