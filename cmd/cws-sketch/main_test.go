package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets a test re-run this binary as cws-sketch itself: with
// CWS_SKETCH_RUN_MAIN=1 set, the process runs main on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("CWS_SKETCH_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runSketch runs cws-sketch with args in a child process and returns its
// stdout, its stderr and whether it exited 0.
func runSketch(t *testing.T, args ...string) (stdout, stderr string, ok bool) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "CWS_SKETCH_RUN_MAIN=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return out.String(), errOut.String(), err == nil
}

// TestInvalidKIsOneLine: a sample size below 1 is refused with one
// "cws-sketch: …" line, not a panic and its goroutine dump.
func TestInvalidKIsOneLine(t *testing.T) {
	in := filepath.Join(t.TempDir(), "in.csv")
	if err := os.WriteFile(in, []byte("key,a,b\nx,4,2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"0", "-5"} {
		stdout, stderr, ok := runSketch(t, "-in", in, "-k", k)
		if ok {
			t.Fatalf("-k %s: exited 0, stdout %q", k, stdout)
		}
		lines := strings.Split(strings.TrimSpace(stderr), "\n")
		if len(lines) != 1 || !strings.HasPrefix(lines[0], "cws-sketch: ") || !strings.Contains(lines[0], "k="+k) {
			t.Fatalf("-k %s: stderr %q, want one cws-sketch: line naming k", k, stderr)
		}
	}
}

// TestNonFiniteWeightIsRefused: a NaN or infinite weight fails the run
// with one line naming its line number, as the server refuses it with 400,
// instead of being dropped while the other rows are answered.
func TestNonFiniteWeightIsRefused(t *testing.T) {
	in := filepath.Join(t.TempDir(), "in.csv")
	if err := os.WriteFile(in, []byte("key,a,b\nx,NaN,1\ny,Inf,2\nz,3,4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout, stderr, ok := runSketch(t, "-in", in, "-query", "sum", "-b", "0")
	if ok {
		t.Fatalf("exited 0, stdout %q", stdout)
	}
	if want := "cws-sketch: csvio: line 2: invalid weight NaN"; !strings.HasPrefix(strings.TrimSpace(stderr), want) || strings.Count(stderr, "\n") != 1 {
		t.Fatalf("stderr %q, want one line starting %q", stderr, want)
	}
}
