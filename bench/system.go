package bench

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"coordsample/bench/rec"
)

// SampleSeed is the servers' rank-hash seed, the same in every run: the
// benchmark's --seed changes the generated keys and weights, not the
// program's configuration.
const SampleSeed = 1

// node is one cws-serve process slot: the arguments and data directory stay
// the same across restarts, the process changes.
type node struct {
	addr       string
	args       []string
	gomaxprocs int
	dataDir    string
	logPath    string
	proc       *rec.Proc

	cpu      time.Duration // of every process that ran in this slot
	maxRSSKB int64         // highest peak of any of them
}

// system is the set of server processes of one workload: one node, or the
// peers of a cluster with the router of peer 0 in front.
type system struct {
	g     *rec.Group
	bin   string
	nodes []*node
}

// newSystem lays out (without starting) the processes of w under dir, on
// freshly chosen loopback ports.
func newSystem(g *rec.Group, bin, dir string, w Workload) (*system, error) {
	ports, err := rec.FreePorts(w.Peers)
	if err != nil {
		return nil, err
	}
	addrs := make([]string, w.Peers)
	for i, p := range ports {
		addrs[i] = "127.0.0.1:" + strconv.Itoa(p)
	}
	s := &system{g: g, bin: bin}
	for i, addr := range addrs {
		n := &node{
			addr:       addr,
			gomaxprocs: serverGOMAXPROCS(w),
			dataDir:    filepath.Join(dir, fmt.Sprintf("data-%d", i)),
			logPath:    filepath.Join(dir, fmt.Sprintf("server-%d.log", i)),
		}
		n.args = []string{
			"-addr", addr,
			"-assignments", strconv.Itoa(w.Assignments),
			"-k", strconv.Itoa(w.K),
			"-seed", strconv.Itoa(SampleSeed),
			"-retain", strconv.Itoa(w.Retain),
			"-data-dir", n.dataDir,
		}
		if w.Peers > 1 {
			n.args = append(n.args, "-peers", strings.Join(addrs, ","), "-self", strconv.Itoa(i))
		}
		s.nodes = append(s.nodes, n)
	}
	return s, nil
}

// serverGOMAXPROCS is the fixed GOMAXPROCS of each server process: 2 for a
// single node, 1 per peer of a cluster.
func serverGOMAXPROCS(w Workload) int {
	if w.Peers > 1 {
		return 1
	}
	return 2
}

// start executes node i's process.
func (s *system) start(i int) error {
	n := s.nodes[i]
	p, err := s.g.Start(n.gomaxprocs, n.logPath, s.bin, n.args...)
	if err != nil {
		return err
	}
	n.proc = p
	return nil
}

// kill ends node i's process with SIGKILL and books what it used.
func (s *system) kill(i int) {
	n := s.nodes[i]
	if n.proc == nil {
		return
	}
	u := n.proc.Kill()
	n.proc = nil
	n.cpu += u.CPU
	if u.MaxRSSKB > n.maxRSSKB {
		n.maxRSSKB = u.MaxRSSKB
	}
}

// killAll ends every process.
func (s *system) killAll() {
	for i := range s.nodes {
		s.kill(i)
	}
}

// readyPoll is the pause between readiness probes that found the port
// closed. It is the resolution of the recovery time.
const readyPoll = 200 * time.Microsecond

// waitReady polls node i's /healthz/ready until it answers 200 with the
// given epoch, on a new connection per probe (the listener appears when the
// process has recovered its store).
func (s *system) waitReady(i, epoch int, timeout time.Duration) error {
	n := s.nodes[i]
	deadline := time.Now().Add(timeout)
	var last error
	for time.Now().Before(deadline) {
		c, err := dial(n.addr)
		if err != nil {
			last = err
			time.Sleep(readyPoll)
			continue
		}
		status, body, err := c.do(http.MethodGet, "/healthz/ready", "", nil)
		c.close()
		if err == nil && status == http.StatusOK {
			var out struct {
				Epoch int `json:"epoch"`
			}
			if err := json.Unmarshal(body, &out); err == nil && out.Epoch == epoch {
				return nil
			}
			last = fmt.Errorf("ready at epoch %d, want %d", out.Epoch, epoch)
		} else if err != nil {
			last = err
		} else {
			last = fmt.Errorf("status %d", status)
		}
		time.Sleep(readyPoll)
	}
	return fmt.Errorf("node %d (%s) not ready within %v: %v%s", i, n.addr, timeout, last, logTail(n.logPath))
}

// logTail returns the end of a server's log for an error message.
func logTail(path string) string {
	data, err := os.ReadFile(path)
	if err != nil || len(data) == 0 {
		return ""
	}
	if len(data) > 600 {
		data = data[len(data)-600:]
	}
	return "\n--- " + path + " ---\n" + string(data)
}

// diskBytes sums the sizes of the regular files under every data directory.
func (s *system) diskBytes() (int64, error) {
	var total int64
	for _, n := range s.nodes {
		err := filepath.Walk(n.dataDir, func(_ string, info os.FileInfo, err error) error {
			if err != nil {
				return err
			}
			if info.Mode().IsRegular() {
				total += info.Size()
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	return total, nil
}
