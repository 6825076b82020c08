package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"coordsample"
	"coordsample/internal/sketch"
)

// writeCSV emits a 2-assignment dataset in the cws interchange format.
func writeCSV(t *testing.T, path string, seed int64, n int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var sb strings.Builder
	sb.WriteString("key,period1,period2\n")
	for i := 0; i < n; i++ {
		w1 := math.Exp(rng.NormFloat64() * 2)
		w2 := w1 * math.Exp(0.5*rng.NormFloat64())
		fmt.Fprintf(&sb, "host-%04d,%g,%g\n", i, w1, w2)
	}
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// summarizeCSV runs the in-process dispersed pipeline over the CSV exactly
// as cws-sketch does (one Offer per positive weight).
func summarizeCSV(t *testing.T, path string, cfg coordsample.Config) *coordsample.Dispersed {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	s0 := coordsample.NewAssignmentSketcher(cfg, 0)
	s1 := coordsample.NewAssignmentSketcher(cfg, 1)
	for _, line := range lines[1:] {
		parts := strings.Split(line, ",")
		var w1, w2 float64
		fmt.Sscanf(parts[1], "%g", &w1)
		fmt.Sscanf(parts[2], "%g", &w2)
		if w1 > 0 {
			s0.Offer(parts[0], w1)
		}
		if w2 > 0 {
			s1.Offer(parts[0], w2)
		}
	}
	d, err := coordsample.CombineDispersed(cfg, []*coordsample.BottomK{s0.Sketch(), s1.Sketch()})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestSeparateProcessesBitIdentical is the acceptance criterion end to
// end, across real OS process boundaries: cws-sketch (process 1) writes
// fingerprinted sketch files, cws-merge (process 2) reads, verifies,
// merges, and queries them, and the printed estimate is bit-identical to
// the in-process pipeline over the same data. Mixing in a sketch built
// under a different seed or K fails loudly.
func TestSeparateProcessesBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	sketchBin := filepath.Join(dir, "cws-sketch")
	mergeBin := filepath.Join(dir, "cws-merge")
	for bin, pkg := range map[string]string{sketchBin: "coordsample/cmd/cws-sketch", mergeBin: "coordsample/cmd/cws-merge"} {
		out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", pkg, err, out)
		}
	}

	csv := filepath.Join(dir, "data.csv")
	writeCSV(t, csv, 21, 3000)
	cfg := coordsample.Config{Family: coordsample.IPPS, Mode: coordsample.SharedSeed, Seed: 1, K: 256}

	// Process 1: sketch and ship (one file per assignment).
	prefix := filepath.Join(dir, "site")
	out, err := exec.Command(sketchBin, "-in", csv, "-k", "256", "-seed", "1",
		"-out", prefix, "-query", "none").CombinedOutput()
	if err != nil {
		t.Fatalf("cws-sketch: %v\n%s", err, out)
	}
	files := []string{prefix + ".0.cws", prefix + ".1.cws"}

	// Process 2: merge and query the shipped files alone.
	inProcess := summarizeCSV(t, csv, cfg)
	for _, q := range []struct {
		args []string
		want float64
	}{
		{[]string{"-query", "L1"}, inProcess.RangeLSet(nil).Estimate(nil)},
		{[]string{"-query", "max"}, inProcess.Max(nil).Estimate(nil)},
		{[]string{"-query", "min"}, inProcess.MinLSet(nil).Estimate(nil)},
		{[]string{"-query", "lth", "-l", "2"}, inProcess.LthLargest(nil, 2).Estimate(nil)},
		{[]string{"-query", "sum", "-b", "0", "-prefix", "host-1"},
			inProcess.Single(0).Estimate(func(k string) bool { return strings.HasPrefix(k, "host-1") })},
	} {
		out, err := exec.Command(mergeBin, append(q.args, files...)...).CombinedOutput()
		if err != nil {
			t.Fatalf("cws-merge %v: %v\n%s", q.args, err, out)
		}
		// cws-merge prints the estimate with %v: shortest exact float64
		// representation, so string equality means bit-identity.
		if want := fmt.Sprintf("= %v ", q.want); !strings.Contains(string(out), want) {
			t.Fatalf("cws-merge %v: output %q does not contain bit-identical %q", q.args, out, want)
		}
	}

	// The retired -format flag is gone.
	if out, err := exec.Command(sketchBin, "-in", csv, "-out", prefix, "-format", "json").CombinedOutput(); err == nil ||
		!strings.Contains(string(out), "flag provided but not defined: -format") {
		t.Fatalf("cws-sketch -format: err = %v, want an unknown flag\n%s", err, out)
	}

	// Loud-failure direction 1: a site with a different seed.
	badPrefix := filepath.Join(dir, "rogue")
	if out, err := exec.Command(sketchBin, "-in", csv, "-k", "256", "-seed", "2",
		"-out", badPrefix, "-query", "none").CombinedOutput(); err != nil {
		t.Fatalf("cws-sketch (rogue): %v\n%s", err, out)
	}
	out, err = exec.Command(mergeBin, "-query", "L1", files[0], badPrefix+".1.cws").CombinedOutput()
	if err == nil {
		t.Fatalf("cws-merge accepted sketches with different seeds:\n%s", out)
	}
	if !strings.Contains(string(out), "not coordinated") {
		t.Fatalf("mismatch error does not explain the coordination failure: %s", out)
	}

	// Loud-failure direction 2: shard sketches of one assignment with
	// different K (caught by the fingerprint in the merge).
	smallPrefix := filepath.Join(dir, "small-k")
	if out, err := exec.Command(sketchBin, "-in", csv, "-k", "128", "-seed", "1",
		"-out", smallPrefix, "-query", "none").CombinedOutput(); err != nil {
		t.Fatalf("cws-sketch (small k): %v\n%s", err, out)
	}
	out, err = exec.Command(mergeBin, "-query", "L1", files[0], smallPrefix+".0.cws", files[1]).CombinedOutput()
	if err == nil {
		t.Fatalf("cws-merge accepted shard sketches with different K:\n%s", out)
	}
	if !strings.Contains(string(out), "fingerprint") {
		t.Fatalf("mismatch error does not mention the fingerprint: %s", out)
	}
}

// TestRunErrors covers the in-process error paths of the merge command.
func TestRunErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run(nil, &buf); err == nil || !strings.Contains(err.Error(), "no sketch files") {
		t.Fatalf("missing-files error: %v", err)
	}
	dir := t.TempDir()
	garbage := filepath.Join(dir, "garbage.cws")
	if err := os.WriteFile(garbage, []byte("not a sketch"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{garbage}, &buf); err == nil || !strings.Contains(err.Error(), "corrupt segment") {
		t.Fatalf("garbage-file error: %v", err)
	}
	if err := run([]string{filepath.Join(dir, "missing.cws")}, &buf); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestRunQueriesDecodedFiles drives run() directly over library-written
// files, including the verbose listing.
func TestRunQueriesDecodedFiles(t *testing.T) {
	dir := t.TempDir()
	cfg := coordsample.Config{Family: coordsample.IPPS, Mode: coordsample.SharedSeed, Seed: 3, K: 32}
	rng := rand.New(rand.NewSource(8))
	var files []string
	for b := 0; b < 2; b++ {
		sk := coordsample.NewAssignmentSketcher(cfg, b)
		for i := 0; i < 500; i++ {
			sk.Offer(fmt.Sprintf("k%04d", i), math.Exp(rng.NormFloat64()))
		}
		path := filepath.Join(dir, fmt.Sprintf("a%d.cws", b))
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := coordsample.EncodeSketch(f, cfg, b, sk.Sketch()); err != nil {
			t.Fatal(err)
		}
		f.Close()
		files = append(files, path)
	}
	var buf bytes.Buffer
	if err := run(append([]string{"-v", "-query", "jaccard"}, files...), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "loaded") || !strings.Contains(out, "weighted Jaccard") {
		t.Fatalf("unexpected output: %s", out)
	}
}

// buildSketches sketches a small deterministic dataset as assignments
// first and first+1.
func buildSketches(cfg coordsample.Config, seed int64, first int) []*coordsample.BottomK {
	rng := rand.New(rand.NewSource(seed))
	sketchers := []*coordsample.AssignmentSketcher{
		coordsample.NewAssignmentSketcher(cfg, first),
		coordsample.NewAssignmentSketcher(cfg, first+1),
	}
	for i := 0; i < 600; i++ {
		key := fmt.Sprintf("host-%04d", i)
		for b, sk := range sketchers {
			sk.Offer(key, math.Exp(rng.NormFloat64())*float64(b+1))
		}
	}
	return []*coordsample.BottomK{sketchers[0].Sketch(), sketchers[1].Sketch()}
}

// writeBundle writes the sketches of assignments first, first+1, ... into
// one segment file, as GET /sketches exports them.
func writeBundle(t *testing.T, path string, cfg coordsample.Config, first int, sketches []*coordsample.BottomK) {
	t.Helper()
	metas := make([]sketch.WireMeta, len(sketches))
	for b := range metas {
		metas[b] = sketch.WireMeta{Family: cfg.Family, Mode: cfg.Mode, Seed: cfg.Seed, Assignment: first + b}
	}
	var buf bytes.Buffer
	if _, err := sketch.EncodeSegment(&buf, metas, sketches); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// writeSketchFiles builds and encodes per-assignment sketch files for a
// small deterministic dataset, returning the paths and the in-process
// summary they must reproduce.
func writeSketchFiles(t *testing.T, dir string, cfg coordsample.Config, seed int64) ([]string, *coordsample.Dispersed) {
	t.Helper()
	sketches := buildSketches(cfg, seed, 0)
	var files []string
	for b, sk := range sketches {
		path := filepath.Join(dir, fmt.Sprintf("site.%d.cws", b))
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := coordsample.EncodeSketch(f, cfg, b, sk); err != nil {
			t.Fatal(err)
		}
		f.Close()
		files = append(files, path)
	}
	summary, err := coordsample.CombineDispersed(cfg, sketches)
	if err != nil {
		t.Fatal(err)
	}
	return files, summary
}

// TestDirectoryAndGlobArguments: a directory argument expands to the
// sketch files inside it, a glob expands to its matches, and both answer
// bit-identically to listing the files explicitly.
func TestDirectoryAndGlobArguments(t *testing.T) {
	dir := t.TempDir()
	cfg := coordsample.Config{Family: coordsample.IPPS, Mode: coordsample.SharedSeed, Seed: 5, K: 128}
	_, summary := writeSketchFiles(t, dir, cfg, 31)
	// A non-sketch file in the directory must be ignored by expansion.
	if err := os.WriteFile(filepath.Join(dir, "README.txt"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("= %v ", summary.RangeLSet(nil).Estimate(nil))

	for name, args := range map[string][]string{
		"directory": {"-query", "L1", dir},
		"glob":      {"-query", "L1", filepath.Join(dir, "site.*.cws")},
	} {
		var buf bytes.Buffer
		if err := run(args, &buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("%s: output %q does not contain bit-identical %q", name, buf.String(), want)
		}
	}

	var buf bytes.Buffer
	if err := run([]string{filepath.Join(dir, "none-*.cws")}, &buf); err == nil || !strings.Contains(err.Error(), "matches no files") {
		t.Fatalf("empty glob: err = %v", err)
	}
	empty := t.TempDir()
	if err := run([]string{empty}, &buf); err == nil || !strings.Contains(err.Error(), "no *.cws") {
		t.Fatalf("empty directory: err = %v", err)
	}
}

// TestFingerprintMismatchNamesTheFile: a rogue shard file (different K)
// among healthy ones must be named in the error, not just indexed.
func TestFingerprintMismatchNamesTheFile(t *testing.T) {
	dir := t.TempDir()
	cfg := coordsample.Config{Family: coordsample.IPPS, Mode: coordsample.SharedSeed, Seed: 5, K: 128}
	files, _ := writeSketchFiles(t, dir, cfg, 31)

	rogueDir := t.TempDir()
	small := cfg
	small.K = 64
	rogueFiles, _ := writeSketchFiles(t, rogueDir, small, 32)

	var buf bytes.Buffer
	err := run([]string{"-query", "L1", files[0], files[1], rogueFiles[0]}, &buf)
	if err == nil {
		t.Fatal("mixed-K shard files accepted")
	}
	if !strings.Contains(err.Error(), rogueFiles[0]) {
		t.Fatalf("error does not name the offending file %s: %v", rogueFiles[0], err)
	}
	if !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("error does not mention the fingerprint: %v", err)
	}

	// A coordination mismatch (different seed) names its file too.
	otherDir := t.TempDir()
	rogueSeed := cfg
	rogueSeed.Seed = 6
	seedFiles, _ := writeSketchFiles(t, otherDir, rogueSeed, 33)
	err = run([]string{"-query", "L1", files[0], seedFiles[1]}, &buf)
	if err == nil {
		t.Fatal("mixed-seed files accepted")
	}
	if !strings.Contains(err.Error(), seedFiles[1]) {
		t.Fatalf("coordination error does not name the offending file: %v", err)
	}

	// Inside a multi-sketch file the offending sketch still names its file:
	// a shard of assignments 0 and 1 under another K, and assignments 1 and
	// 2 under another seed.
	for name, c := range map[string]struct {
		cfg   coordsample.Config
		first int
		want  string
	}{
		"k":    {small, 0, "fingerprint"},
		"seed": {rogueSeed, 1, "not coordinated"},
	} {
		bundle := filepath.Join(t.TempDir(), "bundle.cws")
		writeBundle(t, bundle, c.cfg, c.first, buildSketches(c.cfg, 34, c.first))
		err := run([]string{"-query", "L1", files[0], bundle}, &buf)
		if err == nil || !strings.Contains(err.Error(), bundle) || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s mismatch in a multi-sketch file: err = %v, want %q naming %s", name, err, c.want, bundle)
		}
	}
}

// writeStore appends n epochs of 200 fresh keys each to a new store in dir
// at the given retention and returns the epochs' sketch sets.
func writeStore(t *testing.T, dir string, cfg coordsample.Config, n, retain int) [][]*coordsample.BottomK {
	t.Helper()
	st, err := coordsample.OpenStore(coordsample.StoreConfig{Dir: dir, Retain: retain, Sample: cfg, Assignments: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rng := rand.New(rand.NewSource(12))
	var epochs [][]*coordsample.BottomK
	key := 0
	for e := 0; e < n; e++ {
		sketchers := []*coordsample.AssignmentSketcher{
			coordsample.NewAssignmentSketcher(cfg, 0),
			coordsample.NewAssignmentSketcher(cfg, 1),
		}
		for i := 0; i < 200; i++ {
			k := fmt.Sprintf("key-%05d", key)
			key++
			for _, sk := range sketchers {
				sk.Offer(k, math.Exp(rng.NormFloat64()))
			}
		}
		set := []*coordsample.BottomK{sketchers[0].Sketch(), sketchers[1].Sketch()}
		if _, err := st.AppendEpoch(set); err != nil {
			t.Fatal(err)
		}
		epochs = append(epochs, set)
	}
	return epochs
}

// offlineL1 is the answer text cws-merge must print for the L1 query over
// epochs: their offline merge (sketch.MergeSets), then CombineDispersed.
func offlineL1(t *testing.T, cfg coordsample.Config, epochs [][]*coordsample.BottomK) string {
	t.Helper()
	merged, err := sketch.MergeSets(epochs...)
	if err != nil {
		t.Fatal(err)
	}
	summary, err := coordsample.CombineDispersed(cfg, merged)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("= %v ", summary.RangeLSet(nil).Estimate(nil))
}

// TestStoreQueries: -store reads a durable epoch store directly —
// cumulative by default, any retained window with -epochs — and answers
// bit-identically to the offline merge of the same epochs. A window that
// starts below the retained ring or ends after the last epoch is refused.
func TestStoreQueries(t *testing.T) {
	cfg := coordsample.Config{Family: coordsample.IPPS, Mode: coordsample.SharedSeed, Seed: 9, K: 64}
	wide, narrow := t.TempDir(), t.TempDir()
	wideEpochs := writeStore(t, wide, cfg, 5, 8)
	narrowEpochs := writeStore(t, narrow, cfg, 10, 3)
	for _, c := range []struct {
		dir    string
		epochs string
		want   [][]*coordsample.BottomK
	}{
		{wide, "", wideEpochs},
		{wide, "2..3", wideEpochs[1:3]},
		{wide, "2..4", wideEpochs[1:4]},
		{narrow, "", narrowEpochs},
		{narrow, "8..10", narrowEpochs[7:]},
		{narrow, "9..9", narrowEpochs[8:9]},
	} {
		args := []string{"-store", c.dir, "-query", "L1", "-v"}
		if c.epochs != "" {
			args = append(args, "-epochs", c.epochs)
		}
		var buf bytes.Buffer
		if err := run(args, &buf); err != nil {
			t.Fatal(err)
		}
		if want := offlineL1(t, cfg, c.want); !strings.Contains(buf.String(), want) {
			t.Fatalf("-store -epochs %q output %q does not contain bit-identical %q", c.epochs, buf.String(), want)
		}
		if !strings.Contains(buf.String(), "opened "+c.dir) {
			t.Fatalf("-v did not describe the store: %q", buf.String())
		}
	}

	// Error paths: windows outside the ring, files+store conflicts.
	var buf bytes.Buffer
	for _, c := range []struct{ dir, epochs, want string }{
		{narrow, "6..8", "epochs 6..7 are no longer retained (retained window is 8..10)"},
		{narrow, "8..11", "epoch range 8..11 exceeds the current epoch 10"},
		{wide, "2..9", "epoch range 2..9 exceeds the current epoch 5"},
	} {
		if err := run([]string{"-store", c.dir, "-epochs", c.epochs}, &buf); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("-epochs %s: err %v, want one containing %q", c.epochs, err, c.want)
		}
	}
	if err := run([]string{"-store", wide, "file.cws"}, &buf); err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("store+files: err = %v", err)
	}
	if err := run([]string{"-epochs", "1..2", "x.cws"}, &buf); err == nil || !strings.Contains(err.Error(), "requires -store") {
		t.Fatalf("epochs without store: err = %v", err)
	}
	if err := run([]string{"-store", t.TempDir()}, &buf); err == nil {
		t.Fatal("empty dir accepted as store")
	}
}

// TestStoreWindowWithDuplicateKeyFails: a store whose epochs 2 and 3 both
// hold one key (epoch 1's heavy keys keep it out of the cumulative, so the
// store accepted every epoch) is a broken pre-aggregation contract, and
// -epochs 2..3 reports the key as an error, the one main prints before it
// exits 1, instead of panicking.
func TestStoreWindowWithDuplicateKeyFails(t *testing.T) {
	dir := t.TempDir()
	cfg := coordsample.Config{Family: coordsample.IPPS, Mode: coordsample.SharedSeed, Seed: 9, K: 16}
	st, err := coordsample.OpenStore(coordsample.StoreConfig{Dir: dir, Retain: 4, Sample: cfg, Assignments: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	heavy := make([]string, cfg.K)
	for i := range heavy {
		heavy[i] = fmt.Sprintf("heavy-%02d", i)
	}
	for _, e := range []struct {
		weight float64
		keys   []string
	}{{1e12, heavy}, {1, []string{"dup"}}, {1, []string{"dup"}}} {
		set := make([]*coordsample.BottomK, 2)
		for b := range set {
			sk := coordsample.NewAssignmentSketcher(cfg, b)
			for _, k := range e.keys {
				sk.Offer(k, e.weight)
			}
			set[b] = sk.Sketch()
		}
		if _, err := st.AppendEpoch(set); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	var buf bytes.Buffer
	err = run([]string{"-store", dir, "-epochs", "2..3", "-query", "sum"}, &buf)
	if err == nil || !strings.Contains(err.Error(), `key "dup"`) {
		t.Fatalf("-epochs 2..3 over a duplicate key: err %v, output %q; want an error naming key \"dup\"", err, buf.String())
	}
}

// TestStoreUpgradedFromV2: -store reads a store the version-2 segment
// writer left (internal/store/testdata/v2store) after a version-3 epoch
// and checkpoint were committed onto it — both segment versions on disk —
// and answers bit-identically to the sketches the store recovers.
func TestStoreUpgradedFromV2(t *testing.T) {
	dir := t.TempDir()
	const fixture = "../../internal/store/testdata/v2store"
	files, err := os.ReadDir(fixture)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(fixture, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// The fixture's configuration (internal/store's testSample).
	cfg := coordsample.Config{Family: coordsample.IPPS, Mode: coordsample.SharedSeed, Seed: 77, K: 32}
	st, err := coordsample.OpenStore(coordsample.StoreConfig{Dir: dir, Retain: 2, Sample: cfg, Assignments: 2})
	if err != nil {
		t.Fatal(err)
	}
	sketchers := []*coordsample.AssignmentSketcher{
		coordsample.NewAssignmentSketcher(cfg, 0),
		coordsample.NewAssignmentSketcher(cfg, 1),
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 60; i++ {
		for _, sk := range sketchers {
			sk.Offer(fmt.Sprintf("new-%03d", i), math.Exp(rng.NormFloat64()))
		}
	}
	if _, err := st.AppendEpoch([]*coordsample.BottomK{sketchers[0].Sketch(), sketchers[1].Sketch()}); err != nil {
		t.Fatal(err)
	}
	st.Close()

	ro, err := coordsample.OpenStore(coordsample.StoreConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	// Epoch 4 is a version-2 segment, epoch 5 version 3.
	ring := ro.Retained()
	if len(ring) != 2 || ring[0].Epoch != 4 || ring[1].Epoch != 5 {
		t.Fatalf("retained ring %v, want epochs 4 and 5", ring)
	}
	for name, want := range map[string]byte{"epoch-000004.seg": 2, "epoch-000005.seg": 3} {
		if data, err := os.ReadFile(filepath.Join(dir, name)); err != nil || data[4] != want {
			t.Fatalf("%s: want segment version %d (err %v)", name, want, err)
		}
	}
	window, err := sketch.MergeSets(ring[0].Sketches, ring[1].Sketches)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args     []string
		sketches []*coordsample.BottomK
	}{{nil, ro.Cumulative()}, {[]string{"-epochs", "4..5"}, window}} {
		summary, err := coordsample.CombineDispersed(cfg, c.sketches)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := run(append([]string{"-store", dir, "-query", "L1"}, c.args...), &buf); err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("= %v ", summary.RangeLSet(nil).Estimate(nil)); !strings.Contains(buf.String(), want) {
			t.Fatalf("-store %v output %q does not contain bit-identical %q", c.args, buf.String(), want)
		}
	}
}

// TestLiteralFileWithGlobCharacters: an existing file whose name contains
// glob metacharacters must be read literally, not glob-expanded away.
func TestLiteralFileWithGlobCharacters(t *testing.T) {
	dir := t.TempDir()
	cfg := coordsample.Config{Family: coordsample.IPPS, Mode: coordsample.SharedSeed, Seed: 5, K: 64}
	files, summary := writeSketchFiles(t, dir, cfg, 44)
	weird := []string{
		filepath.Join(dir, "site[A].0.cws"),
		filepath.Join(dir, "site[A].1.cws"),
	}
	for i, f := range files {
		if err := os.Rename(f, weird[i]); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := run(append([]string{"-query", "L1"}, weird...), &buf); err != nil {
		t.Fatalf("literal file with glob chars: %v", err)
	}
	want := fmt.Sprintf("= %v ", summary.RangeLSet(nil).Estimate(nil))
	if !strings.Contains(buf.String(), want) {
		t.Fatalf("output %q does not contain %q", buf.String(), want)
	}
}
