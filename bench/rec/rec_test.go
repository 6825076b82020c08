package rec

import (
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"
	"time"
)

func TestQuantilesAndTail(t *testing.T) {
	var s Samples
	if !math.IsNaN(s.Median()) {
		t.Error("median of nothing is not NaN")
	}
	for i := 1000; i >= 1; i-- {
		s.Add(float64(i))
	}
	if got := s.Median(); got != 500.5 {
		t.Errorf("median %v, want 500.5", got)
	}
	if got := s.Quantile(0.25); math.Abs(got-250.75) > 1e-9 {
		t.Errorf("first quartile %v, want 250.75", got)
	}
	// 1000 samples: p99 has ten beyond it, p99.9 has one.
	if _, p := s.Tail(); p != 99 {
		t.Errorf("tail percentile %v, want 99", p)
	}
	if _, err := s.Percentile(99.9); err == nil {
		t.Error("p99.9 of 1000 samples was reported")
	}
	if err := s.Require("x", 1001); err == nil {
		t.Error("the minimum-sample guard let 1000 of 1001 pass")
	}
	if err := s.Require("x", 1000); err != nil {
		t.Error(err)
	}
	var few Samples
	for i := 0; i < 50; i++ {
		few.Add(1)
	}
	if _, p := few.Tail(); p != 0 {
		t.Errorf("50 samples support no tail percentile, got p%v", p)
	}
}

// TestKillAccountsAndCleansUp starts a process that burns CPU, kills it and
// checks that its usage was read and that Close leaves nothing behind.
func TestKillAccountsAndCleansUp(t *testing.T) {
	sh, err := exec.LookPath("sh")
	if err != nil {
		t.Skip("no sh")
	}
	g := NewGroup()
	dir, err := g.TempDir(t.TempDir(), "run-")
	if err != nil {
		t.Fatal(err)
	}
	p, err := g.Start(1, filepath.Join(dir, "log"), sh, "-c", "while :; do :; done")
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	u := p.Kill()
	if u.CPU <= 0 || u.MaxRSSKB <= 0 {
		t.Errorf("usage of a killed busy loop: %+v", u)
	}
	orphan, err := g.Start(1, filepath.Join(dir, "log"), sh, "-c", "sleep 60")
	if err != nil {
		t.Fatal(err)
	}
	pid := orphan.Pid()
	g.Close()
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("scratch directory survived Close: %v", err)
	}
	if _, err := os.Stat(filepath.Join("/proc", strconv.Itoa(pid), "status")); !os.IsNotExist(err) {
		t.Errorf("process %d survived Close", pid)
	}
	ports, err := FreePorts(3)
	if err != nil || len(ports) != 3 || ports[0] == ports[1] || ports[1] == ports[2] {
		t.Errorf("FreePorts: %v %v", ports, err)
	}
}
