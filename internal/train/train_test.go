package train

import (
	"math"
	"math/rand"
	"testing"

	"acpsgd/internal/compress"
	"acpsgd/internal/data"
	"acpsgd/internal/models"
	"acpsgd/internal/nn"
	"acpsgd/internal/tensor"
)

func TestScheduleWarmupAndDecay(t *testing.T) {
	s := Schedule{BaseLR: 0.1, WarmupEpochs: 5, DecayEpochs: []int{150, 220}}
	if got := s.LR(0); math.Abs(got-0.02) > 1e-12 {
		t.Fatalf("epoch 0 lr=%v want 0.02", got)
	}
	if got := s.LR(4); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("epoch 4 lr=%v want 0.1", got)
	}
	if got := s.LR(100); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("epoch 100 lr=%v want 0.1", got)
	}
	if got := s.LR(150); math.Abs(got-0.01) > 1e-12 {
		t.Fatalf("epoch 150 lr=%v want 0.01", got)
	}
	if got := s.LR(250); math.Abs(got-0.001) > 1e-12 {
		t.Fatalf("epoch 250 lr=%v want 0.001", got)
	}
}

func TestScheduleCustomDecayFactor(t *testing.T) {
	s := Schedule{BaseLR: 1, DecayEpochs: []int{1}, DecayFactor: 0.5}
	if got := s.LR(2); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("lr=%v want 0.5", got)
	}
}

func TestSGDMomentumKnownValues(t *testing.T) {
	p := &nn.Param{
		Name: "w",
		W:    tensor.FromSlice(1, 2, []float64{1, 1}),
		Grad: tensor.FromSlice(1, 2, []float64{1, 2}),
	}
	o := NewSGD(0.9, 0)
	o.SetLR(0.1)
	if err := o.Step([]*nn.Param{p}); err != nil {
		t.Fatal(err)
	}
	// v=[1,2]; w = [1-0.1, 1-0.2]
	if math.Abs(p.W.Data[0]-0.9) > 1e-12 || math.Abs(p.W.Data[1]-0.8) > 1e-12 {
		t.Fatalf("after step1: %v", p.W.Data)
	}
	// second step, same grad: v = 0.9*[1,2] + [1,2] = [1.9,3.8]
	if err := o.Step([]*nn.Param{p}); err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.W.Data[0]-(0.9-0.19)) > 1e-12 {
		t.Fatalf("after step2: %v", p.W.Data)
	}
}

func TestSGDWeightDecay(t *testing.T) {
	p := &nn.Param{
		Name: "w",
		W:    tensor.FromSlice(1, 1, []float64{2}),
		Grad: tensor.FromSlice(1, 1, []float64{0}),
	}
	o := NewSGD(0, 0.5)
	o.SetLR(1)
	if err := o.Step([]*nn.Param{p}); err != nil {
		t.Fatal(err)
	}
	// g_eff = 0 + 0.5*2 = 1 → w = 2-1 = 1
	if math.Abs(p.W.Data[0]-1) > 1e-12 {
		t.Fatalf("w=%v want 1", p.W.Data[0])
	}
}

func TestSGDRejectsNegativeLR(t *testing.T) {
	o := NewSGD(0, 0)
	o.SetLR(-1)
	if err := o.Step(nil); err == nil {
		t.Fatal("expected error for negative lr")
	}
}

func TestFusionGroupSealsAtBudget(t *testing.T) {
	var sealed []*additiveBuffer
	g := newFusionGroup(8*wireBytesPerElem, func(b *additiveBuffer) { sealed = append(sealed, b) })
	p := &nn.Param{Name: "a"}
	g.add(p, nil, make([]float64, 5)) // 5 elems, under budget
	if len(sealed) != 0 {
		t.Fatal("sealed too early")
	}
	g.add(p, nil, make([]float64, 5)) // would overflow: seal first, then hold 5
	if len(sealed) != 1 || len(sealed[0].data) != 5 {
		t.Fatalf("seal behaviour wrong: %d buffers", len(sealed))
	}
	g.flush()
	if len(sealed) != 2 || len(sealed[1].data) != 5 {
		t.Fatalf("flush wrong: %d buffers", len(sealed))
	}
}

func TestFusionGroupZeroBudgetIsPerTensor(t *testing.T) {
	var sealed []*additiveBuffer
	g := newFusionGroup(0, func(b *additiveBuffer) { sealed = append(sealed, b) })
	p := &nn.Param{Name: "a"}
	g.add(p, nil, make([]float64, 3))
	g.add(p, nil, make([]float64, 4))
	if len(sealed) != 2 {
		t.Fatalf("zero budget should seal per tensor, got %d", len(sealed))
	}
	g.flush()
	if len(sealed) != 2 {
		t.Fatal("flush should be a no-op")
	}
}

func TestFusionGroupExactFitSealsOnce(t *testing.T) {
	var sealed []*additiveBuffer
	g := newFusionGroup(4*wireBytesPerElem, func(b *additiveBuffer) { sealed = append(sealed, b) })
	p := &nn.Param{Name: "a"}
	g.add(p, nil, make([]float64, 4))
	if len(sealed) != 1 {
		t.Fatalf("exact fit should seal immediately, got %d", len(sealed))
	}
}

func TestGatherGroupIndicesStable(t *testing.T) {
	var sealed []*gatherBuffer
	g := newGatherGroup(4*wireBytesPerElem, func(b *gatherBuffer) { sealed = append(sealed, b) })
	p := &nn.Param{Name: "a"}
	g.add(p, make([]float64, 4))
	g.add(p, make([]float64, 4))
	g.flush()
	if len(sealed) != 2 || sealed[0].index != 0 || sealed[1].index != 1 {
		t.Fatalf("indices wrong: %+v", sealed)
	}
	g.reset()
	sealed = nil
	g.add(p, make([]float64, 4))
	g.flush()
	if sealed[0].index != 0 {
		t.Fatal("index must restart per step")
	}
}

// buildMLP returns a model factory for the toy classification task.
func buildMLP(features, hidden, classes int) func(rng *rand.Rand) *nn.Model {
	return func(rng *rand.Rand) *nn.Model {
		return nn.NewModel(
			nn.NewDense("fc1", features, hidden, rng),
			nn.NewReLU("act1"),
			nn.NewDense("fc2", hidden, hidden, rng),
			nn.NewReLU("act2"),
			nn.NewDense("head", hidden, classes, rng),
		)
	}
}

func toyTask(t *testing.T) (*data.Dataset, *data.Dataset) {
	t.Helper()
	all := data.GaussianMixture(1001, 768, 16, 4, 1.0)
	trainSet, testSet, err := all.Split(512)
	if err != nil {
		t.Fatal(err)
	}
	return trainSet, testSet
}

func runMethod(t *testing.T, spec string, mutate func(*Config)) *History {
	t.Helper()
	trainSet, testSet := toyTask(t)
	cfg := Config{
		Spec:           compress.MustSpec(spec),
		Workers:        4,
		BatchPerWorker: 16,
		Epochs:         8,
		Momentum:       0.9,
		Schedule:       Schedule{BaseLR: 0.05, WarmupEpochs: 2, DecayEpochs: []int{6}},
		Seed:           7,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	hist, err := Run(cfg, buildMLP(16, 32, 4), trainSet, testSet)
	if err != nil {
		t.Fatalf("%s: %v", spec, err)
	}
	return hist
}

func TestSSGDConverges(t *testing.T) {
	hist := runMethod(t, "ssgd", nil)
	if hist.FinalTestAcc < 0.9 {
		t.Fatalf("S-SGD final acc %.3f < 0.9", hist.FinalTestAcc)
	}
}

func TestACPSGDConverges(t *testing.T) {
	hist := runMethod(t, "acp:rank=2", nil)
	if hist.FinalTestAcc < 0.85 {
		t.Fatalf("ACP-SGD final acc %.3f < 0.85", hist.FinalTestAcc)
	}
}

func TestPowerSGDConverges(t *testing.T) {
	hist := runMethod(t, "power:rank=2", nil)
	if hist.FinalTestAcc < 0.85 {
		t.Fatalf("Power-SGD final acc %.3f < 0.85", hist.FinalTestAcc)
	}
}

func TestSignSGDConverges(t *testing.T) {
	hist := runMethod(t, "sign", func(c *Config) {
		// Sign-SGD needs a smaller effective step (its updates are
		// constant-magnitude); keep the toy setup but lower LR.
		c.Schedule = Schedule{BaseLR: 0.02, WarmupEpochs: 2, DecayEpochs: []int{6}}
	})
	if hist.FinalTestAcc < 0.8 {
		t.Fatalf("Sign-SGD final acc %.3f < 0.8", hist.FinalTestAcc)
	}
}

func TestTopKSGDConverges(t *testing.T) {
	hist := runMethod(t, "topk:ratio=0.05", nil)
	if hist.FinalTestAcc < 0.85 {
		t.Fatalf("Top-k final acc %.3f < 0.85", hist.FinalTestAcc)
	}
}

func TestDGCConverges(t *testing.T) {
	// DGC is registered only in internal/compress (the registry drop-in
	// contract); the trainer picks it up by spec with no dispatch edits.
	hist := runMethod(t, "dgc:ratio=0.05", nil)
	if hist.FinalTestAcc < 0.85 {
		t.Fatalf("DGC final acc %.3f < 0.85", hist.FinalTestAcc)
	}
}

func TestDGCMomentumCorrectionEmulatesOuterMomentum(t *testing.T) {
	// Lin et al.'s claim: computing momentum locally, before
	// sparsification, stands in for the optimizer's momentum. A plain-SGD
	// trainer with dgc:momentum=0.9 should track the momentum-SGD trainer
	// running accumulated top-k at the same density.
	corrected := runMethod(t, "dgc:momentum=0.9,ratio=0.05", func(c *Config) { c.Momentum = 0 })
	baseline := runMethod(t, "topk:ratio=0.05", nil) // outer momentum 0.9
	if corrected.FinalTestAcc < baseline.FinalTestAcc-0.1 {
		t.Fatalf("local momentum correction should emulate outer momentum: %.3f vs %.3f",
			corrected.FinalTestAcc, baseline.FinalTestAcc)
	}
}

func TestDGCParityWithTopK(t *testing.T) {
	// Both methods transmit the same coordinate budget.
	topk := runMethod(t, "topk:ratio=0.05", nil)
	dgc := runMethod(t, "dgc:ratio=0.05", nil)
	if dgc.FinalTestAcc < topk.FinalTestAcc-0.05 {
		t.Fatalf("DGC should track Top-k: %.3f vs %.3f", dgc.FinalTestAcc, topk.FinalTestAcc)
	}
}

func TestACPNoFusionMatchesFused(t *testing.T) {
	// Tensor fusion must not change the math: identical accuracy trajectory
	// with and without fusion.
	a := runMethod(t, "acp:rank=2", nil)
	b := runMethod(t, "acp:rank=2", func(c *Config) { c.NoFusion = true })
	for i := range a.Stats {
		if math.Abs(a.Stats[i].TrainLoss-b.Stats[i].TrainLoss) > 1e-6 {
			t.Fatalf("epoch %d: fused %.6f vs unfused %.6f", i, a.Stats[i].TrainLoss, b.Stats[i].TrainLoss)
		}
	}
}

func TestSSGDSmallBufferMatchesDefault(t *testing.T) {
	a := runMethod(t, "ssgd", nil)
	b := runMethod(t, "ssgd", func(c *Config) { c.BufferBytes = 64 })
	if math.Abs(a.FinalTestAcc-b.FinalTestAcc) > 1e-9 {
		t.Fatalf("buffer size changed results: %.4f vs %.4f", a.FinalTestAcc, b.FinalTestAcc)
	}
}

func TestSingleWorkerRuns(t *testing.T) {
	hist := runMethod(t, "acp:rank=2", func(c *Config) { c.Workers = 1 })
	if hist.FinalTestAcc < 0.85 {
		t.Fatalf("single-worker ACP acc %.3f", hist.FinalTestAcc)
	}
}

func TestTCPTransportTraining(t *testing.T) {
	hist := runMethod(t, "ssgd", func(c *Config) {
		c.UseTCP = true
		c.Workers = 2
		c.Epochs = 3
	})
	if hist.FinalTestAcc < 0.8 {
		t.Fatalf("TCP S-SGD acc %.3f", hist.FinalTestAcc)
	}
}

func TestConfigValidation(t *testing.T) {
	trainSet, testSet := toyTask(t)
	ssgd := compress.MustSpec("ssgd")
	bad := []Config{
		{Spec: ssgd, Workers: 0, BatchPerWorker: 1, Epochs: 1},
		{Spec: ssgd, Workers: 1, BatchPerWorker: 0, Epochs: 1},
		{Spec: ssgd, Workers: 1, BatchPerWorker: 1, Epochs: 0},
		{Spec: compress.MustSpec("acp:rank=0"), Workers: 1, BatchPerWorker: 1, Epochs: 1},                                     // bad rank
		{Spec: compress.MustSpec("topk:ratio=2"), Workers: 1, BatchPerWorker: 1, Epochs: 1},                                   // ratio > 1
		{Spec: compress.Spec{Name: "topk", Params: compress.Params{"rato": "0.1"}}, Workers: 1, BatchPerWorker: 1, Epochs: 1}, // unknown param
		{Spec: compress.Spec{Name: "quantum"}, Workers: 1, BatchPerWorker: 1, Epochs: 1},                                      // unregistered
		{Workers: 1, BatchPerWorker: 1, Epochs: 1},                                                                            // no method
	}
	for i, cfg := range bad {
		if _, err := Run(cfg, buildMLP(16, 8, 4), trainSet, testSet); err == nil {
			t.Fatalf("config %d should fail validation", i)
		}
	}
}

func TestHistoryBestTestAcc(t *testing.T) {
	h := &History{Stats: []EpochStat{{TestAcc: 0.5}, {TestAcc: 0.9}, {TestAcc: 0.7}}}
	if h.BestTestAcc() != 0.9 {
		t.Fatalf("best=%v", h.BestTestAcc())
	}
}

func TestACPAblationEFMattersOnHardTask(t *testing.T) {
	// Rank-1 compression on a higher-rank task: disabling EF should hurt
	// (Fig. 7's mechanism). Use a harder mixture so the gap is visible.
	all := data.GaussianMixture(3001, 1152, 24, 6, 1.4)
	trainSet, testSet, err := all.Split(768)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{
		Spec:           compress.MustSpec("acp:rank=1"),
		Workers:        4,
		BatchPerWorker: 16,
		Epochs:         10,
		Momentum:       0.9,
		Schedule:       Schedule{BaseLR: 0.02, WarmupEpochs: 2, DecayEpochs: []int{8}},
		Seed:           11,
	}
	with, err := Run(base, buildMLP(24, 32, 6), trainSet, testSet)
	if err != nil {
		t.Fatal(err)
	}
	noEF := base
	noEF.Spec = compress.MustSpec("acp:rank=1,ef=false")
	without, err := Run(noEF, buildMLP(24, 32, 6), trainSet, testSet)
	if err != nil {
		t.Fatal(err)
	}
	if with.FinalTestAcc < without.FinalTestAcc-0.02 {
		t.Fatalf("EF should not hurt: with=%.3f without=%.3f", with.FinalTestAcc, without.FinalTestAcc)
	}
	if with.FinalTestAcc < 0.95 {
		t.Fatalf("ACP with EF should solve the task: %.3f", with.FinalTestAcc)
	}
}

// runTrainable trains a named models.Trainable model on its synthetic task
// (nTrain train / nTest test examples) with momentum 0.9, warmup for a tenth
// of the epochs, decays at 1/2 and 3/4 of them, and seed 42.
func runTrainable(t *testing.T, model, spec string, workers, batch, epochs int, lr float64, nTrain, nTest, classes int) *History {
	t.Helper()
	build, all, err := models.Trainable(model, 42, nTrain+nTest, classes)
	if err != nil {
		t.Fatal(err)
	}
	trainSet, testSet, err := all.Split(nTrain)
	if err != nil {
		t.Fatal(err)
	}
	hist, err := Run(Config{
		Spec:           compress.MustSpec(spec),
		Workers:        workers,
		BatchPerWorker: batch,
		Epochs:         epochs,
		Momentum:       0.9,
		Schedule: Schedule{
			BaseLR:       lr,
			WarmupEpochs: epochs / 10,
			DecayEpochs:  []int{epochs / 2, epochs * 3 / 4},
		},
		Seed: 42,
	}, build, trainSet, testSet)
	if err != nil {
		t.Fatalf("%s/%s: %v", model, spec, err)
	}
	return hist
}

func TestTrainSmoke(t *testing.T) {
	hist := runTrainable(t, "mlp", "acp:rank=2", 2, 16, 4, 0.05, 256, 128, 4)
	if len(hist.Stats) != 4 {
		t.Fatalf("want 4 epoch stats, got %d", len(hist.Stats))
	}
	if hist.FinalTestAcc <= 0.3 {
		t.Fatalf("training made no progress: %v", hist.FinalTestAcc)
	}
}

func TestTrainRegistryMethodViaSpecString(t *testing.T) {
	// DGC exists only as a registry entry in internal/compress; training
	// must pick it up from the spec string alone.
	if acc := runTrainable(t, "mlp", "dgc:ratio=0.05", 2, 16, 4, 0.05, 256, 128, 4).FinalTestAcc; acc <= 0.3 {
		t.Fatalf("DGC made no progress: %v", acc)
	}
}

func TestTrainImagesModels(t *testing.T) {
	for _, model := range []string{"minivgg", "miniresnet"} {
		if acc := runTrainable(t, model, "ssgd", 2, 16, 2, 0.02, 256, 64, 4).FinalTestAcc; acc <= 0 {
			t.Fatalf("%s: no accuracy", model)
		}
	}
}

func TestTrainMiniTransformerParity(t *testing.T) {
	// The BERT-family convergence check: ACP-SGD must track S-SGD on the
	// sequence task (the paper's accuracy-parity claim for transformers,
	// which it validates at rank 32 on BERTs).
	ssgd := runTrainable(t, "minitransformer", "ssgd", 4, 16, 8, 0.02, 1024, 256, 4).FinalTestAcc
	acp := runTrainable(t, "minitransformer", "acp:rank=4", 4, 16, 8, 0.02, 1024, 256, 4).FinalTestAcc
	if ssgd < 0.8 {
		t.Fatalf("S-SGD transformer failed to learn: %.3f", ssgd)
	}
	if acp < ssgd-0.08 {
		t.Fatalf("ACP should track S-SGD on the transformer: %.3f vs %.3f", acp, ssgd)
	}
}
