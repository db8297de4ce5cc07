package core

import (
	"testing"

	"acpsgd/internal/sim"
)

func TestSimulateIterationDefaults(t *testing.T) {
	r, err := SimulateIteration(IterationConfig{Model: "resnet50", Method: "acp"})
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalSec <= 0 {
		t.Fatalf("no time simulated: %+v", r)
	}
}

func TestSimulateIterationMethodNames(t *testing.T) {
	for _, method := range []string{"ssgd", "sign", "topk", "power", "power*", "acp", ""} {
		if _, err := SimulateIteration(IterationConfig{Model: "bert-base", Method: method}); err != nil {
			t.Fatalf("method %q: %v", method, err)
		}
	}
	if _, err := SimulateIteration(IterationConfig{Model: "bert-base", Method: "quantum"}); err == nil {
		t.Fatal("expected unknown method error")
	}
}

func TestSimulateIterationModeNames(t *testing.T) {
	for _, mode := range []string{"", "naive", "wfbp", "wfbp+tf", "tf"} {
		if _, err := SimulateIteration(IterationConfig{Model: "resnet50", Method: "acp", Mode: mode}); err != nil {
			t.Fatalf("mode %q: %v", mode, err)
		}
	}
	if _, err := SimulateIteration(IterationConfig{Model: "resnet50", Method: "acp", Mode: "chaotic"}); err == nil {
		t.Fatal("expected unknown mode error")
	}
}

func TestSimulateIterationErrors(t *testing.T) {
	if _, err := SimulateIteration(IterationConfig{Model: "alexnet"}); err == nil {
		t.Fatal("expected unknown model error")
	}
	if _, err := SimulateIteration(IterationConfig{Model: "resnet50", Network: "dialup"}); err == nil {
		t.Fatal("expected unknown network error")
	}
}

func TestParseSimMethodDefaults(t *testing.T) {
	m, mode, _, err := parseSimMethod("power", "")
	if err != nil || m != sim.MethodPower || mode != sim.ModeNaive {
		t.Fatalf("power default should be naive: %v %v %v", m, mode, err)
	}
	m, mode, _, err = parseSimMethod("power*", "")
	if err != nil || m != sim.MethodPower || mode != sim.ModeWFBPTF {
		t.Fatalf("power* default should be wfbp+tf: %v %v %v", m, mode, err)
	}
	m, mode, _, err = parseSimMethod("", "")
	if err != nil || m != sim.MethodSSGD || mode != sim.ModeWFBPTF {
		t.Fatalf("empty method should be optimized ssgd: %v %v %v", m, mode, err)
	}
}

func TestParseSimMethodSpecParams(t *testing.T) {
	// Spec params survive star-stripping and thread into the cost model.
	m, mode, spec, err := parseSimMethod("power*:rank=256", "")
	if err != nil || m != sim.MethodPower || mode != sim.ModeWFBPTF {
		t.Fatalf("power*:rank=256: %v %v %v", m, mode, err)
	}
	if rank, _ := spec.Params.Int("rank", 0); rank != 256 {
		t.Fatalf("rank param lost: %v", spec)
	}
	if _, _, _, err := parseSimMethod("ssgd:rank=4", ""); err == nil {
		t.Fatal("ssgd declares no rank param; expected error")
	}
	if _, _, _, err := parseSimMethod("dgc", ""); err == nil {
		t.Fatal("dgc has no simulator cost model; expected error")
	}
}

func TestTrainRegistryMethodViaSpecString(t *testing.T) {
	// DGC exists only as a registry entry in internal/compress; the whole
	// core → train path must pick it up from the spec string alone.
	hist, err := Train(TrainConfig{
		Method:         "dgc:ratio=0.05",
		Model:          "mlp",
		Workers:        2,
		BatchPerWorker: 16,
		Epochs:         4,
		LR:             0.05,
		TrainExamples:  256,
		TestExamples:   128,
		Classes:        4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if hist.FinalTestAcc <= 0.3 {
		t.Fatalf("DGC made no progress: %v", hist.FinalTestAcc)
	}
}

func TestTrainSmoke(t *testing.T) {
	hist, err := Train(TrainConfig{
		Method:         "acp:rank=2",
		Model:          "mlp",
		Workers:        2,
		BatchPerWorker: 16,
		Epochs:         4,
		LR:             0.05,
		TrainExamples:  256,
		TestExamples:   128,
		Classes:        4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(hist.Stats) != 4 {
		t.Fatalf("want 4 epoch stats, got %d", len(hist.Stats))
	}
	if hist.FinalTestAcc <= 0.3 {
		t.Fatalf("training made no progress: %v", hist.FinalTestAcc)
	}
}

func TestTrainImagesModels(t *testing.T) {
	for _, model := range []string{"minivgg", "miniresnet"} {
		hist, err := Train(TrainConfig{
			Method:         "ssgd",
			Model:          model,
			Workers:        2,
			BatchPerWorker: 16,
			Epochs:         2,
			LR:             0.02,
			TrainExamples:  256,
			TestExamples:   64,
			Classes:        4,
		})
		if err != nil {
			t.Fatalf("%s: %v", model, err)
		}
		if hist.FinalTestAcc <= 0 {
			t.Fatalf("%s: no accuracy", model)
		}
	}
}

func TestTrainMiniTransformerParity(t *testing.T) {
	// The BERT-family convergence check: ACP-SGD must track S-SGD on the
	// sequence task (the paper's accuracy-parity claim for transformers,
	// which it validates at rank 32 on BERTs).
	run := func(method string) float64 {
		hist, err := Train(TrainConfig{
			Method: method, Model: "minitransformer",
			Workers: 4, BatchPerWorker: 16, Epochs: 8, LR: 0.02,
			TrainExamples: 1024, TestExamples: 256, Classes: 4,
		})
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		return hist.FinalTestAcc
	}
	ssgd := run("ssgd")
	acp := run("acp:rank=4")
	if ssgd < 0.8 {
		t.Fatalf("S-SGD transformer failed to learn: %.3f", ssgd)
	}
	if acp < ssgd-0.08 {
		t.Fatalf("ACP should track S-SGD on the transformer: %.3f vs %.3f", acp, ssgd)
	}
}

func TestTrainQuantizers(t *testing.T) {
	for _, method := range []string{"qsgd", "terngrad"} {
		hist, err := Train(TrainConfig{
			Method: method, Model: "mlp",
			Workers: 2, BatchPerWorker: 16, Epochs: 6,
			LR: 0.02, TrainExamples: 512, TestExamples: 128, Classes: 4,
		})
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if hist.FinalTestAcc < 0.7 {
			t.Fatalf("%s failed to learn: %.3f", method, hist.FinalTestAcc)
		}
	}
}

func TestTrainValidation(t *testing.T) {
	if _, err := Train(TrainConfig{Method: "nope"}); err == nil {
		t.Fatal("expected method error")
	}
	if _, err := Train(TrainConfig{Model: "alexnet"}); err == nil {
		t.Fatal("expected model error")
	}
	if _, err := Train(TrainConfig{Model: "minivgg", Dataset: "gaussian"}); err == nil {
		t.Fatal("expected dataset/model mismatch error")
	}
	if _, err := Train(TrainConfig{Dataset: "tabular"}); err == nil {
		t.Fatal("expected unknown dataset error")
	}
}

func TestTrainDefaultsFilledIn(t *testing.T) {
	cfg := (&TrainConfig{}).withDefaults()
	if cfg.Method != "acp" || cfg.Model != "mlp" || cfg.Dataset != "gaussian" {
		t.Fatalf("bad defaults: %+v", cfg)
	}
	if cfg.Workers != 4 || cfg.Epochs != 20 {
		t.Fatalf("bad defaults: %+v", cfg)
	}
	img := (&TrainConfig{Model: "minivgg"}).withDefaults()
	if img.Dataset != "images" {
		t.Fatalf("image model should default to images dataset: %+v", img)
	}
}
