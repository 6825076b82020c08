package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"coordsample"
	"coordsample/internal/cliquery"
)

// buildBinaries compiles cws-serve and cws-merge once per test run.
func buildBinaries(t *testing.T) (serveBin, mergeBin string) {
	t.Helper()
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	serveBin = filepath.Join(dir, "cws-serve")
	mergeBin = filepath.Join(dir, "cws-merge")
	for bin, pkg := range map[string]string{serveBin: "coordsample/cmd/cws-serve", mergeBin: "coordsample/cmd/cws-merge"} {
		out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", pkg, err, out)
		}
	}
	return serveBin, mergeBin
}

// serveProc is one running cws-serve child process.
type serveProc struct {
	cmd  *exec.Cmd
	base string // http://host:port

	mu   sync.Mutex
	log  bytes.Buffer  // stderr so far, guarded by mu
	done chan struct{} // closed once stderr is drained to EOF
}

// logs returns the process's stderr so far.
func (p *serveProc) logs() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.log.String()
}

// startServe launches cws-serve on an ephemeral port and waits until it
// reports its listen address.
func startServe(t *testing.T, bin string, args ...string) *serveProc {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &serveProc{cmd: cmd, done: make(chan struct{})}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			<-p.done
			cmd.Wait()
		}
	})
	addrCh := make(chan string, 1)
	go func() {
		defer close(p.done)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			p.log.WriteString(line + "\n")
			p.mu.Unlock()
			if i := strings.Index(line, "listening on "); i >= 0 {
				addr := strings.Fields(line[i+len("listening on "):])[0]
				select {
				case addrCh <- addr:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		p.base = "http://" + addr
	case <-time.After(20 * time.Second):
		t.Fatalf("cws-serve did not report a listen address; logs:\n%s", p.logs())
	}
	return p
}

// wait blocks until the process exits and returns whether it exited
// cleanly (status 0).
func (p *serveProc) wait(t *testing.T) bool {
	t.Helper()
	exited := make(chan error, 1)
	go func() {
		<-p.done // os/exec: every read from a StderrPipe must end before Wait
		exited <- p.cmd.Wait()
	}()
	select {
	case err := <-exited:
		return err == nil
	case <-time.After(20 * time.Second):
		t.Fatalf("cws-serve did not exit; logs:\n%s", p.logs())
		return false
	}
}

func (p *serveProc) post(t *testing.T, path string, body any) map[string]any {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(p.base+path, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d: %v", path, resp.StatusCode, out)
	}
	return out
}

func (p *serveProc) query(t *testing.T, params string) float64 {
	t.Helper()
	resp, err := http.Get(p.base + "/query?" + params)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /query?%s: status %d: %v", params, resp.StatusCode, out)
	}
	return out["estimate"].(float64)
}

// saveSketches downloads the GET /sketches?<params> export as one file.
func (p *serveProc) saveSketches(t *testing.T, params, path string) {
	t.Helper()
	resp, err := http.Get(p.base + "/sketches?" + params)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET /sketches?%s: status %d: %s", params, resp.StatusCode, body)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := io.Copy(f, resp.Body); err != nil {
		t.Fatal(err)
	}
}

// e2eStream is a deterministic two-assignment stream cut into epochs with
// disjoint keys per epoch chunk.
func e2eStream(n, epochs int, seed int64) [][]coordsample.ServerOffer {
	rng := rand.New(rand.NewSource(seed))
	chunks := make([][]coordsample.ServerOffer, epochs)
	for i := 0; i < n; i++ {
		e := i * epochs / n
		key := fmt.Sprintf("host-%05d", i)
		base := math.Exp(rng.NormFloat64() * 2)
		if rng.Float64() < 0.9 {
			chunks[e] = append(chunks[e], coordsample.ServerOffer{Assignment: 0, Key: key, Weight: base * (0.5 + rng.Float64())})
		}
		if rng.Float64() < 0.9 {
			chunks[e] = append(chunks[e], coordsample.ServerOffer{Assignment: 1, Key: key, Weight: base * (0.5 + rng.Float64())})
		}
	}
	return chunks
}

// offline runs the in-process dispersed pipeline over the given chunks.
func offline(t *testing.T, cfg coordsample.Config, chunks [][]coordsample.ServerOffer) *coordsample.Dispersed {
	t.Helper()
	sketchers := []*coordsample.AssignmentSketcher{
		coordsample.NewAssignmentSketcher(cfg, 0),
		coordsample.NewAssignmentSketcher(cfg, 1),
	}
	for _, chunk := range chunks {
		for _, o := range chunk {
			sketchers[o.Assignment].Offer(o.Key, o.Weight)
		}
	}
	d, err := coordsample.CombineDispersed(cfg,
		[]*coordsample.BottomK{sketchers[0].Sketch(), sketchers[1].Sketch()})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestSIGKILLRecoveryBitIdentical is the restart acceptance criterion over
// real OS processes: freeze epochs into a -data-dir, SIGKILL the server,
// restart on the same directory, and every answer — cumulative and
// per-epoch-window — is bit-identical to the pre-kill server and to the
// offline pipeline; epoch-range answers additionally match cws-merge run
// offline over the same epochs' exported per-epoch sketch files.
func TestSIGKILLRecoveryBitIdentical(t *testing.T) {
	serveBin, mergeBin := buildBinaries(t)
	dataDir := t.TempDir()
	cfg := coordsample.Config{Family: coordsample.IPPS, Mode: coordsample.SharedSeed, Seed: 1, K: 256}
	const epochs = 4
	chunks := e2eStream(3000, epochs, 17)

	args := []string{"-assignments", "2", "-k", "256", "-seed", "1", "-data-dir", dataDir, "-retain", "8"}
	p1 := startServe(t, serveBin, args...)
	for _, chunk := range chunks {
		p1.post(t, "/offer", map[string]any{"offers": chunk})
		p1.post(t, "/freeze", nil)
	}

	queries := []string{
		"agg=L1", "agg=max", "agg=min", "agg=jaccard", "agg=sum&b=0", "agg=sum&b=1&prefix=host-0",
		"agg=L1&epochs=2..4", "agg=L1&epochs=2..3", "agg=sum&b=0&epochs=3", "agg=jaccard&epochs=1..2",
	}
	preKill := make(map[string]float64)
	for _, q := range queries {
		preKill[q] = p1.query(t, q)
	}
	// Export the window's per-epoch sketch files for the offline cws-merge
	// cross-check before killing the server.
	exportDir := t.TempDir()
	var windowFiles []string
	for e := 2; e <= 3; e++ {
		path := filepath.Join(exportDir, fmt.Sprintf("epoch%d.cws", e))
		p1.saveSketches(t, fmt.Sprintf("epochs=%d", e), path)
		windowFiles = append(windowFiles, path)
	}

	if err := p1.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	if clean := p1.wait(t); clean {
		t.Fatal("SIGKILL produced a clean exit?")
	}

	p2 := startServe(t, serveBin, args...)
	if !strings.Contains(p2.logs(), "recovered 4 epoch(s)") {
		t.Fatalf("restart did not report recovery; logs:\n%s", p2.logs())
	}
	for _, q := range queries {
		if got := p2.query(t, q); got != preKill[q] {
			t.Errorf("/query?%s after SIGKILL restart = %v, pre-kill %v (must be bit-identical)", q, got, preKill[q])
		}
	}

	// Offline pipeline agreement (cumulative and the 2..3 window).
	offAll := offline(t, cfg, chunks)
	if _, want, _, err := cliquery.AnswerVia(offAll, "L1", 0, nil, 1, nil, nil, cliquery.Direct); err != nil || p2.query(t, "agg=L1") != want {
		t.Errorf("recovered cumulative L1 != offline pipeline (%v)", err)
	}
	offWin := offline(t, cfg, chunks[1:3])
	_, wantWin, _, err := cliquery.AnswerVia(offWin, "L1", 0, nil, 1, nil, nil, cliquery.Direct)
	if err != nil {
		t.Fatal(err)
	}
	if got := p2.query(t, "agg=L1&epochs=2..3"); got != wantWin {
		t.Errorf("recovered epochs=2..3 L1 = %v, offline = %v", got, wantWin)
	}

	// cws-merge over the exported per-epoch files: the files are disjoint
	// shard-mergeable sketches of the same assignments, so the distributed
	// combiner must reproduce the window answer bit-identically.
	out, err := exec.Command(mergeBin, append([]string{"-query", "L1"}, windowFiles...)...).CombinedOutput()
	if err != nil {
		t.Fatalf("cws-merge over exported epoch files: %v\n%s", err, out)
	}
	if want := fmt.Sprintf("= %v ", wantWin); !strings.Contains(string(out), want) {
		t.Errorf("cws-merge window answer %q does not contain bit-identical %q", out, want)
	}

	// The recovered server keeps ingesting: disjoint keys, one more epoch.
	p2.post(t, "/offer", map[string]any{"offers": []coordsample.ServerOffer{{Assignment: 0, Key: "post-restart", Weight: 1}}})
	res := p2.post(t, "/freeze", nil)
	if res["epoch"].(float64) != epochs+1 {
		t.Errorf("post-recovery freeze epoch = %v, want %d", res["epoch"], epochs+1)
	}
}

// healthEpoch reads the current epoch from /healthz.
func (p *serveProc) healthEpoch(t *testing.T) int {
	t.Helper()
	resp, err := http.Get(p.base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	e, ok := out["epoch"].(float64)
	if !ok {
		t.Fatalf("/healthz has no numeric epoch: %v", out)
	}
	return int(e)
}

// TestSIGKILLDuringParallelDurableFreeze is the fault test for the
// parallel freeze/persist path: SIGKILL lands while a durable freeze —
// per-assignment freezes fanned across a worker pool, segment encoded
// concurrently — is in flight over lanes-ingested data. The store's
// acknowledgement point (the manifest append) is unchanged by the
// parallelism, so a restart recovers either n epochs (the kill beat the
// acknowledgement) or n+1 (it did not) — never a torn epoch — and every
// recovered epoch answers bit-identically to the offline pipeline over
// exactly the chunks it covers.
func TestSIGKILLDuringParallelDurableFreeze(t *testing.T) {
	serveBin, _ := buildBinaries(t)
	dataDir := t.TempDir()
	cfg := coordsample.Config{Family: coordsample.IPPS, Mode: coordsample.SharedSeed, Seed: 7, K: 128}
	const settled = 3 // epochs frozen and acknowledged before the racing freeze
	chunks := e2eStream(2400, settled+1, 23)

	args := []string{"-assignments", "2", "-k", "128", "-seed", "7",
		"-data-dir", dataDir, "-retain", "8", "-lanes", "2"}
	p1 := startServe(t, serveBin, args...)
	for e := 0; e < settled; e++ {
		p1.post(t, "/offer", map[string]any{"offers": chunks[e]})
		p1.post(t, "/freeze", nil)
	}
	p1.post(t, "/offer", map[string]any{"offers": chunks[settled]})

	// Fire the freeze and SIGKILL while it is (likely) still freezing,
	// merging, and persisting. Both outcomes of the race are legal; the
	// invariant under test is that neither produces a torn epoch.
	freezeDone := make(chan struct{})
	go func() {
		defer close(freezeDone)
		resp, err := http.Post(p1.base+"/freeze", "application/json", nil)
		if err == nil {
			resp.Body.Close() // the connection usually dies with the process
		}
	}()
	if err := p1.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	if clean := p1.wait(t); clean {
		t.Fatal("SIGKILL produced a clean exit?")
	}
	<-freezeDone

	p2 := startServe(t, serveBin, args...)
	recovered := p2.healthEpoch(t)
	if recovered != settled && recovered != settled+1 {
		t.Fatalf("recovered %d epochs after mid-freeze SIGKILL, want %d or %d; logs:\n%s",
			recovered, settled, settled+1, p2.logs())
	}
	off := offline(t, cfg, chunks[:recovered])
	for _, q := range []struct {
		params string
		query  string
		b      int
	}{
		{"agg=L1", "L1", 0},
		{"agg=sum&b=0", "sum", 0},
		{"agg=sum&b=1", "sum", 1},
		{"agg=jaccard", "jaccard", 0},
	} {
		_, want, _, err := cliquery.AnswerVia(off, q.query, q.b, nil, 1, nil, nil, cliquery.Direct)
		if err != nil {
			t.Fatal(err)
		}
		if got := p2.query(t, q.params); got != want {
			t.Errorf("recovered /query?%s = %v, offline over %d epochs = %v (must be bit-identical)",
				q.params, got, recovered, want)
		}
	}
	// The recovered server keeps going: one more epoch lands cleanly.
	p2.post(t, "/offer", map[string]any{"offers": []coordsample.ServerOffer{{Assignment: 0, Key: "after-kill", Weight: 1}}})
	if res := p2.post(t, "/freeze", nil); int(res["epoch"].(float64)) != recovered+1 {
		t.Errorf("post-recovery freeze epoch = %v, want %d", res["epoch"], recovered+1)
	}
}

// getBytes fetches base+path and returns the 200 body.
func getBytes(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, err %v", url, resp.StatusCode, err)
	}
	return body
}

// TestSIGKILLAfterFullRingFreeze: SIGKILL lands after a full-ring /freeze
// is acknowledged, with no shutdown of any kind. The restarted server's
// directory holds exactly the retained epoch segments, one cumulative
// segment of the last epoch (at retain 2 every full-ring freeze is a
// checkpoint), MANIFEST and LOCK; it exports the same /sketches bytes,
// without encoding them, and answers every query exactly as before the
// kill.
func TestSIGKILLAfterFullRingFreeze(t *testing.T) {
	serveBin, _ := buildBinaries(t)
	dataDir := t.TempDir()
	chunks := e2eStream(2000, 5, 29)
	args := []string{"-assignments", "2", "-k", "64", "-seed", "9", "-data-dir", dataDir, "-retain", "2"}
	p1 := startServe(t, serveBin, args...)
	for _, chunk := range chunks {
		p1.post(t, "/offer", map[string]any{"offers": chunk})
		p1.post(t, "/freeze", nil)
	}
	killAndRestart(t, p1, serveBin, args, dataDir, 2, 5, 0, "agg=L1&epochs=4..5", "agg=sum&b=0&epochs=5")
}

// TestSIGKILLAtEveryCheckpointLag: at retain 5 the cumulative segment is a
// checkpoint written every ⌈5/2⌉ = 3 freezes once the ring is full, so a
// SIGKILL after freezes 6 to 9 lands at checkpoint lags 0, 1, 2 and 0 again.
// After each, the restarted server's directory holds the five retained
// epoch segments, the one checkpoint, MANIFEST and LOCK; it rebuilds the
// cumulative from the checkpoint and the epochs above it and answers every
// query, every window and /sketches exactly as before the kill (encoding
// the export once when the checkpoint lags).
func TestSIGKILLAtEveryCheckpointLag(t *testing.T) {
	serveBin, _ := buildBinaries(t)
	dataDir := t.TempDir()
	chunks := e2eStream(3000, 9, 31)
	args := []string{"-assignments", "2", "-k", "64", "-seed", "9", "-data-dir", dataDir, "-retain", "5"}
	p := startServe(t, serveBin, args...)
	for i, chunk := range chunks {
		p.post(t, "/offer", map[string]any{"offers": chunk})
		p.post(t, "/freeze", nil)
		if epoch := i + 1; epoch > 5 {
			p = killAndRestart(t, p, serveBin, args, dataDir, 5, epoch, (epoch-6)%3,
				fmt.Sprintf("agg=L1&epochs=%d..%d", epoch-4, epoch), fmt.Sprintf("agg=sum&b=0&epochs=%d", epoch-4))
		}
	}
}

// killAndRestart records p's answers to a fixed query battery plus windows
// and its cumulative /sketches bytes, SIGKILLs it at epoch with its
// checkpoint lag epochs behind, and restarts the server over dataDir
// (args, retaining retain epochs). The
// restarted server's directory must hold LOCK, MANIFEST, the checkpoint
// cum-<epoch-lag>.seg and the retained epoch segments; its /sketches bytes
// and answers must equal p's, and it must encode the export only when the
// checkpoint lags. It returns the restarted server.
func killAndRestart(t *testing.T, p *serveProc, serveBin string, args []string, dataDir string, retain, epoch, lag int, windows ...string) *serveProc {
	t.Helper()
	queries := append([]string{"agg=L1", "agg=max", "agg=jaccard", "agg=sum&b=1"}, windows...)
	preKill := make(map[string]float64)
	for _, q := range queries {
		preKill[q] = p.query(t, q)
	}
	sketches := getBytes(t, p.base+"/sketches")
	if err := p.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	if clean := p.wait(t); clean {
		t.Fatal("SIGKILL produced a clean exit?")
	}

	p2 := startServe(t, serveBin, args...)
	entries, err := os.ReadDir(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	want := []string{"LOCK", "MANIFEST", fmt.Sprintf("cum-%06d.seg", epoch-lag)}
	for e := epoch - retain + 1; e <= epoch; e++ {
		want = append(want, fmt.Sprintf("epoch-%06d.seg", e))
	}
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Fatalf("epoch %d: data dir after restart holds %v, want %v", epoch, names, want)
	}
	if got := getBytes(t, p2.base+"/sketches"); !bytes.Equal(got, sketches) {
		t.Errorf("epoch %d: /sketches after the restart (%d bytes) differs from before the kill (%d bytes)", epoch, len(got), len(sketches))
	}
	metrics := scrapeMetrics(t, p2.base)
	if encodes := min(lag, 1); !strings.Contains(metrics, fmt.Sprintf("\ncws_segment_export_encodes_total %d\n", encodes)) {
		t.Errorf("epoch %d, lag %d: the restarted server's export was not encoded %d time(s)", epoch, lag, encodes)
	}
	// The startup phases are set; merge only when the checkpoint lags.
	for _, phase := range []string{"open", "decode", "merge", "snapshot", "listen"} {
		line := fmt.Sprintf("\ncws_startup_phase_seconds{phase=%q} ", phase)
		i := strings.Index(metrics, line)
		if i < 0 {
			t.Fatalf("/metrics after the restart has no %s", strings.TrimSpace(line))
		}
		v, err := strconv.ParseFloat(strings.SplitN(metrics[i+len(line):], "\n", 2)[0], 64)
		if positive := phase != "merge" || lag > 0; err != nil || (v > 0) != positive {
			t.Errorf("epoch %d, lag %d: startup phase %s = %v (err %v)", epoch, lag, phase, v, err)
		}
	}
	for _, q := range queries {
		if got := p2.query(t, q); got != preKill[q] {
			t.Errorf("epoch %d: /query?%s after SIGKILL restart = %v, pre-kill %v (must be bit-identical)", epoch, q, got, preKill[q])
		}
	}
	return p2
}

// TestGracefulShutdownAutoFreezes is the SIGTERM regression test: offers
// ingested but never frozen must survive a graceful shutdown — the server
// auto-freezes the open epoch, flushes it to the store, and exits 0; a
// restart serves them.
func TestGracefulShutdownAutoFreezes(t *testing.T) {
	serveBin, _ := buildBinaries(t)
	dataDir := t.TempDir()
	args := []string{"-assignments", "1", "-k", "64", "-seed", "3", "-data-dir", dataDir, "-retain", "4"}

	p1 := startServe(t, serveBin, args...)
	p1.post(t, "/offer", map[string]any{"offers": []coordsample.ServerOffer{
		{Assignment: 0, Key: "a", Weight: 5},
		{Assignment: 0, Key: "b", Weight: 7},
	}})
	// No freeze: the data lives only in the open epoch.
	if err := p1.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if clean := p1.wait(t); !clean {
		t.Fatalf("SIGTERM exit was not clean; logs:\n%s", p1.logs())
	}
	if !strings.Contains(p1.logs(), "shut down cleanly at epoch 1") {
		t.Fatalf("shutdown did not freeze the open epoch; logs:\n%s", p1.logs())
	}

	p2 := startServe(t, serveBin, args...)
	if got := p2.query(t, "agg=sum&b=0"); got != 12 {
		t.Fatalf("restart after graceful shutdown: sum = %v, want 12 (auto-frozen offers lost)", got)
	}
	// The auto-frozen epoch is a normal epoch: range-queryable.
	if got := p2.query(t, "agg=sum&b=0&epochs=1..1"); got != 12 {
		t.Fatalf("epochs=1..1 sum = %v, want 12", got)
	}
}

// TestServeRefusesMismatchedDataDir: restarting over a -data-dir with a
// different seed must fail loudly instead of mixing incomparable samples.
func TestServeRefusesMismatchedDataDir(t *testing.T) {
	serveBin, _ := buildBinaries(t)
	dataDir := t.TempDir()
	p1 := startServe(t, serveBin, "-assignments", "1", "-k", "64", "-seed", "3", "-data-dir", dataDir)
	p1.post(t, "/offer", map[string]any{"offers": []coordsample.ServerOffer{{Assignment: 0, Key: "a", Weight: 1}}})
	p1.post(t, "/freeze", nil)
	p1.cmd.Process.Signal(syscall.SIGTERM)
	p1.wait(t)

	cmd := exec.Command(serveBin, "-addr", "127.0.0.1:0", "-assignments", "1", "-k", "64", "-seed", "4", "-data-dir", dataDir)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("mismatched seed over existing -data-dir accepted:\n%s", out)
	}
	if !strings.Contains(string(out), "fingerprint") {
		t.Fatalf("mismatch error does not explain the fingerprint conflict: %s", out)
	}
}
