package models

import (
	"math"
	"math/rand"
	"testing"

	"acpsgd/internal/tensor"
)

// within checks got is within frac of want.
func within(got, want, frac float64) bool {
	return math.Abs(got-want) <= frac*want
}

func TestResNet50ParamCountMatchesPaper(t *testing.T) {
	m := ResNet50()
	// Table I: 25.6M.
	if got := float64(m.NumParams()); !within(got, 25.6e6, 0.02) {
		t.Fatalf("ResNet-50 params %.2fM, want ~25.6M", got/1e6)
	}
}

func TestResNet152ParamCountMatchesPaper(t *testing.T) {
	m := ResNet152()
	// Table I: 60.2M.
	if got := float64(m.NumParams()); !within(got, 60.2e6, 0.02) {
		t.Fatalf("ResNet-152 params %.2fM, want ~60.2M", got/1e6)
	}
}

func TestBERTBaseParamCountMatchesPaper(t *testing.T) {
	m := BERTBase()
	// Table I: 110.1M (includes task head we approximate with the pooler).
	if got := float64(m.NumParams()); !within(got, 110.1e6, 0.03) {
		t.Fatalf("BERT-Base params %.2fM, want ~110.1M", got/1e6)
	}
}

func TestBERTLargeParamCountMatchesPaper(t *testing.T) {
	m := BERTLarge()
	// Table I: 336.2M.
	if got := float64(m.NumParams()); !within(got, 336.2e6, 0.03) {
		t.Fatalf("BERT-Large params %.2fM, want ~336.2M", got/1e6)
	}
}

func TestTableICompressionRatios(t *testing.T) {
	// Table I, Power-SGD column: 67x (ResNet-50, r=4), 53x (ResNet-152,
	// r=4), 16x (BERT-Base, r=32), 21x (BERT-Large, r=32). Our tables must
	// reproduce these within 15%.
	cases := []struct {
		spec  *ModelSpec
		rank  int
		ratio float64
	}{
		{ResNet50(), 4, 67},
		{ResNet152(), 4, 53},
		{BERTBase(), 32, 16},
		{BERTLarge(), 32, 21},
	}
	for _, c := range cases {
		got := c.spec.CompressionRatio(c.rank)
		if !within(got, c.ratio, 0.15) {
			t.Errorf("%s rank %d: ratio %.1fx, paper %.0fx", c.spec.Name, c.rank, got, c.ratio)
		}
	}
}

func TestACPHalvesPowerTraffic(t *testing.T) {
	for _, m := range Benchmarks() {
		r := m.DefaultRank
		p := m.ACPPayloadElems(r, true)
		q := m.ACPPayloadElems(r, false)
		full := m.PowerCompressedElems(r)
		vec := m.VectorParams()
		// P-step + Q-step payloads (minus double-counted vectors) equal the
		// full Power-SGD traffic.
		if p+q-vec != full {
			t.Errorf("%s: P(%d)+Q(%d)-vec(%d) != power(%d)", m.Name, p, q, vec, full)
		}
	}
}

func TestVGG16AndResNet18Reasonable(t *testing.T) {
	v := VGG16()
	// CIFAR VGG-16 ≈ 14.7M.
	if got := float64(v.NumParams()); !within(got, 14.7e6, 0.05) {
		t.Fatalf("VGG-16 params %.2fM, want ~14.7M", got/1e6)
	}
	r := ResNet18()
	// CIFAR ResNet-18 ≈ 11.2M.
	if got := float64(r.NumParams()); !within(got, 11.2e6, 0.05) {
		t.Fatalf("ResNet-18 params %.2fM, want ~11.2M", got/1e6)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"resnet50", "resnet152", "bert-base", "bert-large", "vgg16", "resnet18"} {
		m, err := ByName(name)
		if err != nil || m == nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("alexnet"); err == nil {
		t.Fatal("expected error for unknown model")
	}
}

func TestSpecInvariants(t *testing.T) {
	for _, m := range []*ModelSpec{ResNet50(), ResNet152(), BERTBase(), BERTLarge(), VGG16(), ResNet18()} {
		if m.DefaultBatch < 1 || m.RefComputeSec <= 0 || m.DefaultRank < 1 {
			t.Fatalf("%s: missing calibration fields", m.Name)
		}
		if m.TotalFwdFLOPs() <= 0 {
			t.Fatalf("%s: no FLOPs", m.Name)
		}
		if m.MatrixParams()+m.VectorParams() != m.NumParams() {
			t.Fatalf("%s: param partition broken", m.Name)
		}
		for _, ts := range m.Tensors {
			if ts.Rows < 1 || ts.Cols < 1 {
				t.Fatalf("%s tensor %s: bad shape", m.Name, ts.Name)
			}
		}
		// Matrix params dominate in all benchmark models (compression is
		// worthwhile).
		if float64(m.MatrixParams()) < 0.9*float64(m.NumParams()) {
			t.Fatalf("%s: matrix params only %d of %d", m.Name, m.MatrixParams(), m.NumParams())
		}
	}
}

func TestEffRankCaps(t *testing.T) {
	ts := TensorSpec{Rows: 10, Cols: 3}
	if ts.effRank(8) != 3 {
		t.Fatalf("effRank=%d want 3", ts.effRank(8))
	}
	if ts.effRank(0) != 1 {
		t.Fatalf("effRank=%d want 1", ts.effRank(0))
	}
}

func TestMiniModelsTrainable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vgg := MiniVGG(rng, 3, 8, 8, 10)
	if vgg.NumParams() < 1000 {
		t.Fatal("MiniVGG too small")
	}
	res := MiniResNet(rng, 3, 8, 8, 10)
	if res.NumParams() < 1000 {
		t.Fatal("MiniResNet too small")
	}
	mlp := MLP(rng, 16, 32, 4)
	x := tensor.New(2, 16)
	x.Randomize(rng, 1)
	if y := mlp.Forward(x); y.Cols != 4 {
		t.Fatalf("MLP output %d", y.Cols)
	}
	xi := tensor.New(2, 3*8*8)
	xi.Randomize(rng, 1)
	if y := vgg.Forward(xi); y.Cols != 10 {
		t.Fatalf("MiniVGG output %d", y.Cols)
	}
	if y := res.Forward(xi); y.Cols != 10 {
		t.Fatalf("MiniResNet output %d", y.Cols)
	}
}

func TestMiniTransformerForward(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := MiniTransformer(rng, 20, 8, 16, 4)
	x := tensor.New(3, 8)
	for i := range x.Data {
		x.Data[i] = float64(rng.Intn(20))
	}
	y := m.Forward(x)
	if y.Rows != 3 || y.Cols != 4 {
		t.Fatalf("output %dx%d, want 3x4", y.Rows, y.Cols)
	}
	// The embedding table plus attention projections dominate the params.
	if m.NumParams() < 20*16+4*16*16 {
		t.Fatalf("suspiciously few params: %d", m.NumParams())
	}
}

func TestMLPPanicsOnTooFewDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MLP(rand.New(rand.NewSource(1)), 4)
}

func TestTrainable(t *testing.T) {
	for _, name := range []string{"mlp", "minivgg", "miniresnet", "minitransformer"} {
		build, ds, err := Trainable(name, 7, 24, 4)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ds.Len() != 24 || ds.Classes != 4 {
			t.Fatalf("%s: dataset %d rows / %d classes, want 24 / 4", name, ds.Len(), ds.Classes)
		}
		// The factory's model accepts its own dataset's rows.
		if y := build(rand.New(rand.NewSource(1))).Forward(ds.X); y.Rows != 24 || y.Cols != 4 {
			t.Fatalf("%s: output %dx%d, want 24x4", name, y.Rows, y.Cols)
		}
	}
	if _, _, err := Trainable("alexnet", 7, 24, 4); err == nil {
		t.Fatal("expected unknown model error")
	}
}
