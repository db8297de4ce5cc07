package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

func TestRunSpecCarriesAblationKnobs(t *testing.T) {
	// dgc exists only as a registry entry in internal/compress; the CLI
	// picks it up from the spec string alone.
	for _, spec := range []string{"acp:rank=1,ef=false", "dgc:ratio=0.05"} {
		args := []string{"-model", "mlp", "-workers", "2", "-epochs", "1", "-examples", "128", "-method", spec}
		if code := run(args); code != 0 {
			t.Fatalf("run(%q) = %d, want 0", args, code)
		}
	}
}

func TestRunRejectsZeroWorkers(t *testing.T) {
	// A zero flag is passed through, not replaced by a default.
	args := []string{"-model", "mlp", "-workers", "0", "-epochs", "1", "-examples", "128"}
	if code := run(args); code != 1 {
		t.Fatalf("run(%q) = %d, want 1", args, code)
	}
}

func TestRunRejectsRemovedKnobFlags(t *testing.T) {
	// Method knobs are spec params only; the old per-knob flags are gone,
	// and so is the on-disk checkpoint store.
	for _, args := range [][]string{
		{"-rank", "2"},
		{"-topk-ratio", "0.01"},
		{"-no-ef"},
		{"-no-reuse"},
		{"-checkpoint-dir", "x"},
	} {
		if code := run(args); code != 2 {
			t.Fatalf("run(%q) = %d, want 2 (flag parse error)", args, code)
		}
	}
}

func TestRunBadSpecFails(t *testing.T) {
	if code := run([]string{"-model", "mlp", "-method", "acp:rank=0"}); code != 1 {
		t.Fatalf("bad rank param: exit %d, want 1", code)
	}
}

func TestRunDeletedMethodUnknown(t *testing.T) {
	// A method deleted from the registry fails like any unknown name, with
	// the registry's error naming the valid methods.
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = w
	code := run([]string{"-model", "mlp", "-method", "qsgd"})
	os.Stderr = stderr
	w.Close()
	msg, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Fatalf("-method qsgd: exit %d, want 1", code)
	}
	if want := `unknown method "qsgd" (registered: `; !strings.Contains(string(msg), want) {
		t.Fatalf("-method qsgd: stderr %q, want it to contain %q", msg, want)
	}
}
