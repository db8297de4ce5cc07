package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"acpsgd/internal/exp"
)

// wantExit runs acpbench with each argument list and checks its exit code.
func wantExit(t *testing.T, want int, argLists ...[]string) {
	t.Helper()
	for _, args := range argLists {
		if code := run(args); code != want {
			t.Errorf("run(%q) = %d, want %d", args, code, want)
		}
	}
}

func TestRunRejectsBadFilter(t *testing.T) {
	wantExit(t, 2, []string{"-baseline", "-filter", "("})
}

func TestRunRejectsFilterWithoutBaseline(t *testing.T) {
	wantExit(t, 2, []string{"-filter", "^MatMul256$"})
}

func TestRunFilterMatchingNoCase(t *testing.T) {
	// An empty selection would make the gate pass vacuously.
	wantExit(t, 1, []string{"-baseline", "-filter", "^NoSuchCase$", "-out", t.TempDir()})
}

func TestRunUnknownExperiment(t *testing.T) {
	wantExit(t, 1, []string{"-exp", "nope"})
}

// TestRunOutMustBeDirectory: -out is checked before the suite is recorded,
// and a file there must not send the free-file-name search into a loop.
func TestRunOutMustBeDirectory(t *testing.T) {
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	done := make(chan int, 1)
	go func() { done <- run([]string{"-baseline", "-filter", "^MatMul256$", "-out", file}) }()
	select {
	case code := <-done:
		if code != 2 {
			t.Fatalf("-out <file>: exit %d, want 2", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("-out <file>: run did not return within 5s")
	}
}

func TestRunListPrintsExperimentIDs(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	code := run([]string{"-list"})
	os.Stdout = stdout
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("-list: exit %d, want 0", code)
	}
	if want := strings.Join(exp.Names(), "\n") + "\n"; string(out) != want {
		t.Fatalf("-list printed %q, want %q", out, want)
	}
	// Ring timing belongs to the bench suite (RingAllReduce*, TCPFrameCRC*),
	// so the only ablations are the simulator sweeps and top-k selection.
	var ablations []string
	for _, id := range strings.Fields(string(out)) {
		if strings.HasPrefix(id, "ablation-") {
			ablations = append(ablations, id)
		}
	}
	if got, want := strings.Join(ablations, " "), "ablation-alpha ablation-interference ablation-selection"; got != want {
		t.Fatalf("-list ablations = %q, want %q", got, want)
	}
}
