package main

import "testing"

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
