package main

import (
	"testing"

	"acpsgd/internal/sim"
)

func TestRunSpecParamsReachCostModel(t *testing.T) {
	if code := run([]string{"-model", "bert-large", "-method", "power*:rank=32"}); code != 0 {
		t.Fatalf("power*:rank=32: exit %d, want 0", code)
	}
}

func TestRunRejectsUndeclaredParam(t *testing.T) {
	// ssgd declares no rank param, so the spec fails validation.
	if code := run([]string{"-model", "bert-large", "-method", "ssgd:rank=4"}); code != 1 {
		t.Fatalf("ssgd:rank=4: exit %d, want 1", code)
	}
}

func TestRunRejectsRemovedRankFlag(t *testing.T) {
	if code := run([]string{"-rank", "4"}); code != 2 {
		t.Fatalf("-rank 4: exit %d, want 2 (flag parse error)", code)
	}
}

// wantExit runs acpsim with each argument list and checks its exit code.
func wantExit(t *testing.T, want int, argLists ...[]string) {
	t.Helper()
	for _, args := range argLists {
		if code := run(args); code != want {
			t.Errorf("run(%q) = %d, want %d", args, code, want)
		}
	}
}

func TestRunDefaults(t *testing.T) {
	wantExit(t, 0, []string{"-model", "resnet50", "-method", "acp"})
}

func TestRunMethodNames(t *testing.T) {
	for _, method := range []string{"ssgd", "sign", "topk", "power", "power*", "acp", ""} {
		wantExit(t, 0, []string{"-model", "bert-base", "-method", method})
	}
	wantExit(t, 1, []string{"-model", "bert-base", "-method", "quantum"})
}

func TestRunModeNames(t *testing.T) {
	for _, mode := range []string{"", "naive", "wfbp", "wfbp+tf", "tf"} {
		wantExit(t, 0, []string{"-model", "resnet50", "-method", "acp", "-mode", mode})
	}
	wantExit(t, 1, []string{"-model", "resnet50", "-method", "acp", "-mode", "chaotic"})
}

func TestRunErrors(t *testing.T) {
	wantExit(t, 1,
		[]string{"-model", "alexnet"},
		[]string{"-model", "resnet50", "-network", "dialup"})
}

func TestRunRejectsZeroWorkers(t *testing.T) {
	// A zero flag is passed through, not replaced by a default.
	wantExit(t, 1, []string{"-model", "resnet50", "-workers", "0"})
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
