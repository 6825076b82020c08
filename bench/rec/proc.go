package rec

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// Usage is what the kernel recorded for one ended process: CPU time to the
// microsecond and peak resident memory. It comes from wait4's rusage, so it
// is exact and is still there after SIGKILL. The peak is the same number
// /proc/<pid>/status shows as VmHWM while the process lives.
type Usage struct {
	CPU      time.Duration // user + system
	MaxRSSKB int64
}

// Proc is one server process started by a Group.
type Proc struct {
	g   *Group
	cmd *exec.Cmd
	log *os.File
}

// Group owns every process and scratch directory of one benchmark run and
// removes them on any exit path: Close for the normal ones and for panics
// (defer it), a signal handler for SIGINT and SIGTERM, and a parent-death
// signal for the case where the benchmark itself is killed.
type Group struct {
	mu    sync.Mutex
	procs map[*Proc]struct{}
	dirs  []string
	sigs  chan os.Signal
}

// NewGroup returns an empty group whose signal handler is installed.
func NewGroup() *Group {
	g := &Group{procs: make(map[*Proc]struct{}), sigs: make(chan os.Signal, 1)}
	signal.Notify(g.sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		if _, ok := <-g.sigs; ok {
			g.cleanup()
			os.Exit(130)
		}
	}()
	return g
}

// TempDir creates a directory under parent that Close removes.
func (g *Group) TempDir(parent, pattern string) (string, error) {
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(parent, pattern)
	if err != nil {
		return "", err
	}
	g.mu.Lock()
	g.dirs = append(g.dirs, dir)
	g.mu.Unlock()
	return dir, nil
}

// Start runs bin with args and the given GOMAXPROCS, appending its standard
// error to logPath.
func (g *Group) Start(gomaxprocs int, logPath, bin string, args ...string) (*Proc, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	cmd.Stderr = logf
	// The child dies with the benchmark even when the benchmark is killed
	// with a signal it cannot handle.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	p := &Proc{g: g, cmd: cmd, log: logf}
	g.mu.Lock()
	g.procs[p] = struct{}{}
	g.mu.Unlock()
	return p, nil
}

// Pid returns the process id.
func (p *Proc) Pid() int { return p.cmd.Process.Pid }

// Kill sends SIGKILL, waits for the process to end and returns what it used.
func (p *Proc) Kill() Usage {
	_ = p.cmd.Process.Kill()
	_ = p.cmd.Wait() // "signal: killed" is the expected outcome
	p.log.Close()
	p.g.mu.Lock()
	delete(p.g.procs, p)
	p.g.mu.Unlock()
	var u Usage
	if ru, ok := p.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		u.CPU = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		u.MaxRSSKB = int64(ru.Maxrss)
	}
	return u
}

func (g *Group) cleanup() {
	g.mu.Lock()
	procs := make([]*Proc, 0, len(g.procs))
	for p := range g.procs {
		procs = append(procs, p)
	}
	dirs := g.dirs
	g.dirs = nil
	g.mu.Unlock()
	for _, p := range procs {
		p.Kill()
	}
	for _, d := range dirs {
		os.RemoveAll(d)
	}
}

// Close kills every process still running, waits for each, removes the
// scratch directories and uninstalls the signal handler.
func (g *Group) Close() {
	signal.Stop(g.sigs)
	close(g.sigs)
	g.cleanup()
}

// FreePorts returns n loopback TCP ports that were free a moment ago. The
// listeners are closed before returning, so a server started right away can
// bind them (and bind them again after a restart).
func FreePorts(n int) ([]int, error) {
	ports := make([]int, n)
	for i := range ports {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		ports[i] = ln.Addr().(*net.TCPAddr).Port
	}
	return ports, nil
}
