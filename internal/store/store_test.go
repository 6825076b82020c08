package store

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"coordsample/internal/core"
	"coordsample/internal/faults"
	"coordsample/internal/rank"
	"coordsample/internal/sketch"
)

var testSample = core.Config{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 77, K: 32}

// buildEpochs synthesizes n epochs of two-assignment sketch sets over
// disjoint key ranges (the pre-aggregation contract across epochs).
func buildEpochs(t testing.TB, n, keysPerEpoch int) [][]*sketch.BottomK {
	t.Helper()
	a := testSample.Assigner()
	rng := rand.New(rand.NewSource(5))
	epochs := make([][]*sketch.BottomK, n)
	key := 0
	for e := range epochs {
		builders := make([]*sketch.BottomKBuilder, 2)
		for b := range builders {
			builders[b] = sketch.NewBottomKBuilderWithFingerprint(testSample.K, a.Fingerprint(b, testSample.K))
		}
		for i := 0; i < keysPerEpoch; i++ {
			k := fmt.Sprintf("key-%06d", key)
			key++
			for b, bld := range builders {
				w := math.Exp(rng.NormFloat64())
				bld.Offer(k, a.Rank(k, b, w), w)
			}
		}
		set := make([]*sketch.BottomK, 2)
		for b, bld := range builders {
			set[b] = bld.Sketch()
		}
		epochs[e] = set
	}
	return epochs
}

func openWritable(t *testing.T, dir string, retain int) *Store {
	t.Helper()
	s, err := Open(Config{Dir: dir, Retain: retain, Sample: testSample, Assignments: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func appendAll(t *testing.T, s *Store, epochs [][]*sketch.BottomK) {
	t.Helper()
	for i, set := range epochs {
		epoch, err := s.AppendEpoch(set)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if epoch != i+1 {
			t.Fatalf("append %d returned epoch %d", i, epoch)
		}
	}
}

func sameSketch(t testing.TB, label string, got, want *sketch.BottomK) {
	t.Helper()
	if got.K() != want.K() || got.Fingerprint() != want.Fingerprint() ||
		math.Float64bits(got.KthRank()) != math.Float64bits(want.KthRank()) ||
		math.Float64bits(got.Threshold()) != math.Float64bits(want.Threshold()) ||
		got.Size() != want.Size() {
		t.Fatalf("%s: sketch shape differs", label)
	}
	for i, e := range want.Entries() {
		if got.Entries()[i] != e {
			t.Fatalf("%s: entry %d = %+v, want %+v", label, i, got.Entries()[i], e)
		}
	}
}

func sameSketchSet(t testing.TB, label string, got, want []*sketch.BottomK) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d sketches, want %d", label, len(got), len(want))
	}
	for b := range want {
		sameSketch(t, fmt.Sprintf("%s[b=%d]", label, b), got[b], want[b])
	}
}

// mergeAll is the offline reference: the exact merge of a run of epochs.
func mergeAll(t testing.TB, epochs [][]*sketch.BottomK) []*sketch.BottomK {
	t.Helper()
	out, err := sketch.MergeSets(epochs...)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRecoveryBitIdentical: reopening a store recovers every acknowledged
// epoch and the cumulative merge bit-identically — entries, conditioning
// ranks, fingerprints.
func TestRecoveryBitIdentical(t *testing.T) {
	dir := t.TempDir()
	epochs := buildEpochs(t, 5, 200)

	s := openWritable(t, dir, 8)
	appendAll(t, s, epochs)
	liveCum := s.Cumulative()
	s.Close()

	r := openWritable(t, dir, 8)
	if r.Epoch() != 5 {
		t.Fatalf("recovered epoch %d, want 5", r.Epoch())
	}
	sameSketchSet(t, "cumulative", r.Cumulative(), liveCum)
	sameSketchSet(t, "cumulative-vs-offline", r.Cumulative(), mergeAll(t, epochs))
	retained := r.Retained()
	if len(retained) != 5 {
		t.Fatalf("recovered %d retained epochs, want 5", len(retained))
	}
	for i, rec := range retained {
		if rec.Epoch != i+1 {
			t.Fatalf("retained[%d].Epoch = %d", i, rec.Epoch)
		}
		sameSketchSet(t, fmt.Sprintf("epoch %d", rec.Epoch), rec.Sketches, epochs[i])
	}
}

// copyFixture copies the store directory testdata/<name> into a temporary
// directory and returns it.
func copyFixture(t *testing.T, name string) string {
	t.Helper()
	dir := t.TempDir()
	files, err := os.ReadDir(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join("testdata", name, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestV2StoreUpgrades: a directory the version-2 segment writer left
// (testdata/v2store: buildEpochs(t, 4, 60) appended at retain 2 — a
// checkpoint through epoch 4 and epochs 3 and 4, all version 2) recovers
// bit-identically without handing out its checkpoint's bytes as the
// export, which the writer would now write as version 3. Its next commit
// writes version 3 (the epoch and the checkpoint, whose bytes are then the
// export), and it recovers bit-identically from both versions at once.
func TestV2StoreUpgrades(t *testing.T) {
	dir := copyFixture(t, "v2store")
	epochs := buildEpochs(t, 5, 60)
	check := func(s *Store, epoch int) {
		t.Helper()
		retained := s.Retained()
		if s.Epoch() != epoch || s.CompactedThrough() != epoch-2 || len(retained) != 2 {
			t.Fatalf("epoch %d, compacted through %d, %d retained; want %d, %d, 2",
				s.Epoch(), s.CompactedThrough(), len(retained), epoch, epoch-2)
		}
		sameSketchSet(t, "cumulative", s.Cumulative(), mergeAll(t, epochs[:epoch]))
		for _, rec := range retained {
			sameSketchSet(t, fmt.Sprintf("epoch %d", rec.Epoch), rec.Sketches, epochs[rec.Epoch-1])
		}
	}
	version := func(name string) byte {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return data[4]
	}
	if v := version("cum-000004.seg"); v != 2 {
		t.Fatalf("fixture checkpoint is version %d", v)
	}

	s := openWritable(t, dir, 2)
	check(s, 4)
	if s.CumulativeSegment() != nil {
		t.Fatal("a version-2 checkpoint of IPPS shared-seed sketches is handed out as the export")
	}
	if _, err := s.AppendEpoch(epochs[4]); err != nil {
		t.Fatal(err)
	}
	check(s, 5)
	// The last segment written, version 3, is the cumulative one.
	union, entries := map[string]bool{}, 0
	for _, sk := range s.Cumulative() {
		entries += sk.Size()
		for _, e := range sk.Entries() {
			union[e.Key] = true
		}
	}
	if got, want := s.SegmentKeyRatio(), float64(len(union))/float64(entries); got != want {
		t.Errorf("SegmentKeyRatio = %v, want %d keys / %d entries", got, len(union), entries)
	}
	want, _, err := sketch.MarshalSegment(testSample.WireMetas(2), s.Cumulative())
	if err != nil {
		t.Fatal(err)
	}
	if got := s.CumulativeSegment(); !bytes.Equal(got, want) || got[4] != 3 {
		t.Fatal("the first commit's checkpoint is not the version-3 encoding of the cumulative")
	}
	s.Close()
	for name, want := range map[string]byte{"cum-000005.seg": 3, "epoch-000004.seg": 2, "epoch-000005.seg": 3} {
		if v := version(name); v != want {
			t.Errorf("%s is segment version %d, want %d", name, v, want)
		}
	}
	r := openWritable(t, dir, 2)
	check(r, 5)
	if !bytes.Equal(r.CumulativeSegment(), want) {
		t.Fatal("a recovered version-3 checkpoint is not handed out as the export")
	}
}

// TestCrashAfterUnacknowledgedAppend simulates a SIGKILL between the
// segment rename and the manifest rename: the segment exists but no
// manifest line does. Recovery must serve exactly the acknowledged prefix,
// and the next append must reuse the epoch number cleanly.
func TestCrashAfterUnacknowledgedAppend(t *testing.T) {
	dir := t.TempDir()
	epochs := buildEpochs(t, 4, 150)

	s := openWritable(t, dir, 8)
	appendAll(t, s, epochs[:3])
	s.Close()

	// Simulate: epoch 4's segment landed, its manifest line did not.
	manifest, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	s2 := openWritable(t, dir, 8)
	if _, err := s2.AppendEpoch(epochs[3]); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	if err := os.WriteFile(filepath.Join(dir, manifestName), manifest, 0o644); err != nil {
		t.Fatal(err)
	}

	r := openWritable(t, dir, 8)
	if r.Epoch() != 3 {
		t.Fatalf("recovered epoch %d, want the acknowledged prefix 3", r.Epoch())
	}
	sameSketchSet(t, "prefix cumulative", r.Cumulative(), mergeAll(t, epochs[:3]))
	// Epoch 4 again: the orphaned segment is overwritten, not tripped over.
	if epoch, err := r.AppendEpoch(epochs[3]); err != nil || epoch != 4 {
		t.Fatalf("re-append after orphan: epoch %d, err %v", epoch, err)
	}
	sameSketchSet(t, "re-appended cumulative", r.Cumulative(), mergeAll(t, epochs))
}

// TestCorruptionIsTyped: non-tail manifest damage and segment damage (flip,
// truncation, deletion) refuse to open with typed errors that name their
// package ("store: ") — corrupt acknowledged state is never silently served.
func TestCorruptionIsTyped(t *testing.T) {
	build := func(t *testing.T) string {
		dir := t.TempDir()
		s := openWritable(t, dir, 8)
		appendAll(t, s, buildEpochs(t, 3, 100))
		s.Close()
		return dir
	}
	reopen := func(t *testing.T, dir string) error {
		s, err := Open(Config{Dir: dir, Retain: 8, Sample: testSample, Assignments: 2})
		if err == nil {
			s.Close()
		} else if !strings.HasPrefix(err.Error(), "store: ") {
			t.Errorf("error %q lacks the \"store: \" prefix", err)
		}
		return err
	}

	t.Run("corrupt manifest middle line", func(t *testing.T) {
		dir := build(t)
		mpath := filepath.Join(dir, manifestName)
		data, _ := os.ReadFile(mpath)
		lines := strings.Split(string(data), "\n")
		lines[1] = "E x" + lines[1][3:] // damage epoch 1's record
		os.WriteFile(mpath, []byte(strings.Join(lines, "\n")), 0o644)
		var ce *CorruptError
		if err := reopen(t, dir); !errors.As(err, &ce) {
			t.Fatalf("err = %v, want *CorruptError", err)
		}
	})

	t.Run("flipped segment byte", func(t *testing.T) {
		dir := build(t)
		seg := filepath.Join(dir, segmentName("epoch", 2))
		data, _ := os.ReadFile(seg)
		data[len(data)/2] ^= 0x01
		os.WriteFile(seg, data, 0o644)
		var ce *CorruptError
		if err := reopen(t, dir); !errors.As(err, &ce) {
			t.Fatalf("err = %v, want *CorruptError", err)
		}
	})

	t.Run("truncated segment", func(t *testing.T) {
		dir := build(t)
		seg := filepath.Join(dir, segmentName("epoch", 3))
		data, _ := os.ReadFile(seg)
		os.WriteFile(seg, data[:len(data)-7], 0o644)
		var ce *CorruptError
		if err := reopen(t, dir); !errors.As(err, &ce) {
			t.Fatalf("err = %v, want *CorruptError", err)
		}
	})

	t.Run("missing segment", func(t *testing.T) {
		dir := build(t)
		os.Remove(filepath.Join(dir, segmentName("epoch", 1)))
		var ce *CorruptError
		if err := reopen(t, dir); !errors.As(err, &ce) {
			t.Fatalf("err = %v, want *CorruptError", err)
		}
	})

	// Segments decode concurrently; the error reported is still the first
	// damaged record in manifest order.
	t.Run("first of two damaged segments", func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
		dir := build(t)
		for _, e := range []int{2, 3} {
			seg := filepath.Join(dir, segmentName("epoch", e))
			data, _ := os.ReadFile(seg)
			os.WriteFile(seg, data[:len(data)-7], 0o644)
		}
		for i := 0; i < 20; i++ {
			var ce *CorruptError
			if err := reopen(t, dir); !errors.As(err, &ce) || filepath.Base(ce.Path) != segmentName("epoch", 2) {
				t.Fatalf("err = %v, want the *CorruptError of %s", err, segmentName("epoch", 2))
			}
		}
	})

	// A segment whose checksum and size its record vouches for, but whose
	// sketches are out of assignment order, disagrees with the record's
	// per-assignment fingerprints.
	t.Run("segment out of assignment order", func(t *testing.T) {
		dir := build(t)
		name := segmentName("epoch", 2)
		data, _ := os.ReadFile(filepath.Join(dir, name))
		d, err := sketch.DecodeSegment(data)
		if err != nil {
			t.Fatal(err)
		}
		swapped, crc, err := sketch.MarshalSegment([]sketch.WireMeta{d[1].Meta, d[0].Meta}, []*sketch.BottomK{d[1].BottomK, d[0].BottomK})
		if err != nil {
			t.Fatal(err)
		}
		os.WriteFile(filepath.Join(dir, name), swapped, 0o644)
		mpath := filepath.Join(dir, manifestName)
		manifest, _ := os.ReadFile(mpath)
		lines := strings.SplitAfter(string(manifest), "\n")
		for i, line := range lines {
			if strings.HasPrefix(line, "E 2 ") {
				lines[i] = manifestLine('E', 2, name, len(swapped), crc, []uint64{d[0].Fingerprint(), d[1].Fingerprint()})
			}
		}
		os.WriteFile(mpath, []byte(strings.Join(lines, "")), 0o644)
		var ce *CorruptError
		if err := reopen(t, dir); !errors.As(err, &ce) || filepath.Base(ce.Path) != name || !strings.Contains(err.Error(), "describes assignment 1") {
			t.Fatalf("err = %v, want the *CorruptError of %s naming the order", err, name)
		}
	})

	t.Run("damaged header", func(t *testing.T) {
		dir := build(t)
		mpath := filepath.Join(dir, manifestName)
		data, _ := os.ReadFile(mpath)
		data[0] ^= 0x01
		os.WriteFile(mpath, data, 0o644)
		var ce *CorruptError
		if err := reopen(t, dir); !errors.As(err, &ce) {
			t.Fatalf("err = %v, want *CorruptError", err)
		}
	})
}

// TestConfigMismatchIsTyped: opening a store under a different sampling
// configuration (or assignment count) fails with *MismatchError.
func TestConfigMismatchIsTyped(t *testing.T) {
	dir := t.TempDir()
	s := openWritable(t, dir, 8)
	appendAll(t, s, buildEpochs(t, 2, 100))
	s.Close()

	other := testSample
	other.Seed = 78
	var me *MismatchError
	if _, err := Open(Config{Dir: dir, Retain: 8, Sample: other, Assignments: 2}); !errors.As(err, &me) {
		t.Fatalf("different seed: err = %v, want *MismatchError", err)
	}
	if _, err := Open(Config{Dir: dir, Retain: 8, Sample: testSample, Assignments: 3}); !errors.As(err, &me) {
		t.Fatalf("different assignments: err = %v, want *MismatchError", err)
	}
}

// TestCompactionBoundsDiskAndKeepsCumulativeExact: with retain=r, only the
// r most recent epochs keep segment files, compacted history lives in one
// cumulative segment, and the cumulative sketches stay bit-identical to
// the full offline merge across reopenings.
func TestCompactionBoundsDiskAndKeepsCumulativeExact(t *testing.T) {
	dir := t.TempDir()
	const retain = 3
	epochs := buildEpochs(t, 10, 120)

	s := openWritable(t, dir, retain)
	appendAll(t, s, epochs)
	if got := s.CompactedThrough(); got != 7 {
		t.Fatalf("compacted through %d, want 7", got)
	}
	sameSketchSet(t, "live cumulative", s.Cumulative(), mergeAll(t, epochs))
	s.Close()

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".seg") {
			segs = append(segs, e.Name())
		}
	}
	if len(segs) != retain+1 {
		t.Fatalf("disk holds %d segments %v, want retain+1 = %d", len(segs), segs, retain+1)
	}

	r := openWritable(t, dir, retain)
	if r.Epoch() != 10 || r.CompactedThrough() != 7 {
		t.Fatalf("recovered epoch %d / through %d", r.Epoch(), r.CompactedThrough())
	}
	sameSketchSet(t, "recovered cumulative", r.Cumulative(), mergeAll(t, epochs))

	// The ring holds the last retain epochs bit-identically; cws-merge's
	// TestStoreQueries merges windows of it.
	for i, rec := range r.Retained() {
		if rec.Epoch != 8+i {
			t.Fatalf("retained[%d] is epoch %d, want %d", i, rec.Epoch, 8+i)
		}
		sameSketchSet(t, fmt.Sprintf("epoch %d", rec.Epoch), rec.Sketches, epochs[7+i])
	}
}

// TestRetainZeroCompactsEverything: retain=0 (cws-serve -retain 0) keeps no
// individual epochs — pure durability: every commit writes its epoch
// segment and the cumulative, then unlinks the epoch segment, so the
// directory holds one cumulative segment beside MANIFEST and LOCK, and
// Window refuses every window.
func TestRetainZeroCompactsEverything(t *testing.T) {
	dir := t.TempDir()
	epochs := buildEpochs(t, 4, 100)
	s := openWritable(t, dir, 0)
	appendAll(t, s, epochs)
	if len(s.Retained()) != 0 || s.CompactedThrough() != 4 {
		t.Fatalf("retained %d / through %d, want 0 / 4", len(s.Retained()), s.CompactedThrough())
	}
	sameSketchSet(t, "cumulative", s.Cumulative(), mergeAll(t, epochs))
	s.Close()
	r := openWritable(t, dir, 0)
	sameSketchSet(t, "recovered", r.Cumulative(), mergeAll(t, epochs))
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if want := []string{"LOCK", "MANIFEST", segmentName("cum", 4)}; !slices.Equal(names, want) {
		t.Errorf("directory holds %v, want %v", names, want)
	}
	for lo := 1; lo <= 5; lo++ {
		for hi := lo; hi <= 5; hi++ {
			if sets, err := Window(r.Retained(), r.Epoch(), lo, hi); err == nil {
				t.Errorf("Window(%d..%d) served %d epochs from a retain-0 store", lo, hi, len(sets))
			}
		}
	}
}

// TestAppendEpochDuplicateKeyIsAnError: epochs 1 and 2 both hold "dup",
// which breaks the contract that epochs hold disjoint keys. Both copies are
// heavy, so the cumulative keeps the first and the second survives into
// AppendEpoch's merge: its core.Merged turns the sketch layer's panic naming
// the key into an error, nothing is committed, and the store keeps serving.
func TestAppendEpochDuplicateKeyIsAnError(t *testing.T) {
	a := testSample.Assigner()
	epoch := func(keys ...string) []*sketch.BottomK {
		set := make([]*sketch.BottomK, 2)
		for b := range set {
			bld := sketch.NewBottomKBuilderWithFingerprint(testSample.K, a.Fingerprint(b, testSample.K))
			for _, k := range keys {
				bld.Offer(k, a.Rank(k, b, 1e12), 1e12)
			}
			set[b] = bld.Sketch()
		}
		return set
	}
	dir := t.TempDir()
	s := openWritable(t, dir, 4)
	appendAll(t, s, [][]*sketch.BottomK{epoch("dup", "one")})
	if _, ok := s.Cumulative()[0].Lookup("dup"); !ok {
		t.Fatal("the cumulative dropped \"dup\": the append's merge would not meet both copies")
	}
	if epoch, err := s.AppendEpoch(epoch("dup", "two")); err == nil || !strings.Contains(err.Error(), `key "dup"`) {
		t.Fatalf("AppendEpoch = epoch %d, err %v; want an error naming key \"dup\"", epoch, err)
	}
	// The refused epoch's segment, written while the merge ran, is removed.
	if got := segmentFiles(t, dir); !slices.Equal(got, []string{segmentName("epoch", 1)}) {
		t.Fatalf("after the refused append the directory holds %v, want only epoch 1's segment", got)
	}
	if got, err := s.AppendEpoch(epoch("three")); err != nil || got != 2 {
		t.Fatalf("the append after the refused one: epoch %d, err %v; want 2, nil", got, err)
	}
	s.Close()
	if r := openWritable(t, dir, 4); r.Epoch() != 2 {
		t.Fatalf("reopened at epoch %d, want 2", r.Epoch())
	}
}

// TestWindow: Window refuses a window past the last epoch or starting below
// the ring, and anything over an empty ring, in the node's wording; a window
// on the ring's exact bounds returns its epochs' sets, oldest first.
func TestWindow(t *testing.T) {
	epochs := buildEpochs(t, 3, 40)
	ring := []EpochRecord{{Epoch: 4, Sketches: epochs[0]}, {Epoch: 5, Sketches: epochs[1]}, {Epoch: 6, Sketches: epochs[2]}}
	for _, c := range []struct {
		ring          []EpochRecord
		epoch, lo, hi int
		want          string
	}{
		{nil, 0, 1, 1, "epoch range 1..1 exceeds the current epoch 0"},
		{nil, 3, 1, 3, "no epochs are retained (configure -retain, or freeze first)"},
		{ring, 6, 5, 7, "epoch range 5..7 exceeds the current epoch 6"},
		{ring, 6, 3, 5, "epochs 3..3 are no longer retained (retained window is 4..6); raise -retain to keep more history"},
		{ring, 6, 1, 2, "epochs 1..2 are no longer retained (retained window is 4..6); raise -retain to keep more history"},
	} {
		if sets, err := Window(c.ring, c.epoch, c.lo, c.hi); err == nil || err.Error() != c.want {
			t.Errorf("Window(%d-epoch ring, %d, %d, %d) = %d sets, err %v; want %q", len(c.ring), c.epoch, c.lo, c.hi, len(sets), err, c.want)
		}
	}
	for _, c := range []struct{ lo, hi, first int }{{4, 6, 0}, {4, 4, 0}, {6, 6, 2}, {5, 6, 1}} {
		sets, err := Window(ring, 6, c.lo, c.hi)
		if err != nil || len(sets) != c.hi-c.lo+1 {
			t.Fatalf("Window(ring, 6, %d, %d) = %d sets, err %v", c.lo, c.hi, len(sets), err)
		}
		for i, set := range sets {
			sameSketchSet(t, fmt.Sprintf("%d..%d[%d]", c.lo, c.hi, i), set, epochs[c.first+i])
		}
	}
}

// TestReadOnlyOpen: a store opened without a configuration recovers
// everything, reconstructs the sampling configuration from the stored
// sketches, and refuses writes.
func TestReadOnlyOpen(t *testing.T) {
	dir := t.TempDir()
	epochs := buildEpochs(t, 4, 100)
	s := openWritable(t, dir, 2)
	appendAll(t, s, epochs)
	s.Close()

	r, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Epoch() != 4 || r.Assignments() != 2 {
		t.Fatalf("read-only recovered epoch %d / assignments %d", r.Epoch(), r.Assignments())
	}
	cfg, ok := r.SampleConfig()
	if !ok || cfg != testSample {
		t.Fatalf("SampleConfig = %+v, %v; want %+v", cfg, ok, testSample)
	}
	sameSketchSet(t, "read-only cumulative", r.Cumulative(), mergeAll(t, epochs))
	if _, err := r.AppendEpoch(epochs[0]); err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Fatalf("read-only append: err = %v", err)
	}

	if _, err := Open(Config{Dir: t.TempDir()}); err == nil || !strings.Contains(err.Error(), "not a store") {
		t.Fatalf("read-only open of empty dir: err = %v", err)
	}
}

// TestGarbageCollection: tmp orphans and unreferenced segments are removed
// on writable open.
func TestGarbageCollection(t *testing.T) {
	dir := t.TempDir()
	s := openWritable(t, dir, 8)
	appendAll(t, s, buildEpochs(t, 2, 50))
	s.Close()
	for _, junk := range []string{"epoch-000009.seg", "cum-000001.seg", "epoch-000001.seg.tmp-junk"} {
		if err := os.WriteFile(filepath.Join(dir, junk), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	r := openWritable(t, dir, 8)
	r.Close()
	for _, junk := range []string{"epoch-000009.seg", "cum-000001.seg", "epoch-000001.seg.tmp-junk"} {
		if _, err := os.Stat(filepath.Join(dir, junk)); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s survived garbage collection", junk)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, segmentName("epoch", 2))); err != nil {
		t.Errorf("referenced segment collected: %v", err)
	}
}

// TestOpenValidation: invalid configurations are rejected up front.
func TestOpenValidation(t *testing.T) {
	if _, err := Open(Config{Dir: t.TempDir(), Sample: testSample}); err == nil {
		t.Error("assignments=0 with sample accepted")
	}
	if _, err := Open(Config{Dir: t.TempDir(), Assignments: 2}); err == nil {
		t.Error("zero sample with assignments accepted")
	}
	if _, err := Open(Config{Dir: t.TempDir(), Retain: -1, Sample: testSample, Assignments: 2}); err == nil {
		t.Error("negative retain accepted")
	}
}

// TestTerminatedCorruptFinalLineIsCorruption: a final manifest line that
// fails its checksum is acknowledged state hit by bit rot and must refuse
// to open — not be silently dropped (which would discard the acknowledged
// epoch and garbage-collect its segment). So must a final line cut short
// of its newline: every commit replaces the manifest whole, so nothing
// writes a partial line, and none is forgiven as a torn append.
func TestTerminatedCorruptFinalLineIsCorruption(t *testing.T) {
	for name, damage := range map[string]func([]byte) []byte{
		"flipped byte, newline kept": func(b []byte) []byte { b[len(b)-10] ^= 0x01; return b },
		"cut short of its newline":   func(b []byte) []byte { return b[:len(b)-20] },
		"newline dropped":            func(b []byte) []byte { return b[:len(b)-1] },
	} {
		dir := t.TempDir()
		s := openWritable(t, dir, 8)
		appendAll(t, s, buildEpochs(t, 3, 100))
		s.Close()

		mpath := filepath.Join(dir, manifestName)
		data, err := os.ReadFile(mpath)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(mpath, damage(data), 0o644); err != nil {
			t.Fatal(err)
		}
		var ce *CorruptError
		if _, err := Open(Config{Dir: dir, Retain: 8, Sample: testSample, Assignments: 2}); !errors.As(err, &ce) {
			t.Fatalf("%s: err = %v, want *CorruptError", name, err)
		}
		// The acknowledged segment must survive the failed open.
		if _, err := os.Stat(filepath.Join(dir, segmentName("epoch", 3))); err != nil {
			t.Fatalf("%s: failed open deleted acknowledged segment: %v", name, err)
		}
	}
}

// TestManifestWriteFailureLeavesStoreUsable: a commit whose new manifest
// cannot be renamed into place — a real I/O error, here a directory
// holding MANIFEST's name — fails without acknowledging the epoch, and
// once the name is free again the retry succeeds with no reopen.
func TestManifestWriteFailureLeavesStoreUsable(t *testing.T) {
	dir := t.TempDir()
	epochs := buildEpochs(t, 2, 80)
	s := openWritable(t, dir, 8)
	appendAll(t, s, epochs[:1])

	mpath := filepath.Join(dir, manifestName)
	manifest, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(mpath); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(mpath, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendEpoch(epochs[1]); err == nil {
		t.Fatal("commit with MANIFEST's name taken by a directory succeeded")
	}
	if s.Epoch() != 1 {
		t.Fatalf("failed commit acknowledged: epoch %d", s.Epoch())
	}
	if err := os.Remove(mpath); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mpath, manifest, 0o644); err != nil {
		t.Fatal(err)
	}
	if epoch, err := s.AppendEpoch(epochs[1]); err != nil || epoch != 2 {
		t.Fatalf("retry: epoch %d, err %v", epoch, err)
	}
	s.Close()
	r := openWritable(t, dir, 8)
	if r.Epoch() != 2 {
		t.Fatalf("recovered epoch %d, want 2", r.Epoch())
	}
	sameSketchSet(t, "recovered cumulative", r.Cumulative(), mergeAll(t, epochs))
}

// TestWriterLockIsExclusive: a second writable open of the same directory
// is refused while the first holds the flock (two writers would corrupt
// acknowledged history); read-only opens are unaffected, and the lock
// dies with Close.
func TestWriterLockIsExclusive(t *testing.T) {
	dir := t.TempDir()
	s := openWritable(t, dir, 8)
	appendAll(t, s, buildEpochs(t, 1, 50))

	if _, err := Open(Config{Dir: dir, Retain: 8, Sample: testSample, Assignments: 2}); err == nil || !strings.Contains(err.Error(), "locked") {
		t.Fatalf("second writable open: err = %v, want lock refusal", err)
	}
	ro, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("read-only open while locked: %v", err)
	}
	ro.Close()

	s.Close()
	again := openWritable(t, dir, 8)
	if again.Epoch() != 1 {
		t.Fatalf("reopen after Close: epoch %d, want 1", again.Epoch())
	}
}

// TestRefusesToInitializeOverSegments: a writable open of a directory
// holding segment files but no manifest must refuse — initializing would
// garbage-collect the very data the store exists to protect.
func TestRefusesToInitializeOverSegments(t *testing.T) {
	dir := t.TempDir()
	s := openWritable(t, dir, 8)
	appendAll(t, s, buildEpochs(t, 2, 50))
	s.Close()
	if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
		t.Fatal(err)
	}

	var ce *CorruptError
	if _, err := Open(Config{Dir: dir, Retain: 8, Sample: testSample, Assignments: 2}); !errors.As(err, &ce) {
		t.Fatalf("init over orphaned segments: err = %v, want *CorruptError", err)
	}
	// The segments must survive the refused open.
	for e := 1; e <= 2; e++ {
		if _, err := os.Stat(filepath.Join(dir, segmentName("epoch", e))); err != nil {
			t.Fatalf("refused open deleted segment %d: %v", e, err)
		}
	}
}

// segmentFiles lists the segment files in dir, sorted.
func segmentFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".seg") {
			segs = append(segs, e.Name())
		}
	}
	return segs
}

// TestCumulativeSegmentIsTheCommit: at retain 2 the checkpoint interval
// ⌈retain/2⌉ is 1, so once the ring is full every commit writes the
// caller's merge as the cumulative segment of epochs 1..n, the manifest
// holds that one C record and the ring's E records (which lie at or below
// it), and the bytes Commit returns — and a reopen hands back — are
// EncodeSegment of the cumulative.
func TestCumulativeSegmentIsTheCommit(t *testing.T) {
	dir := t.TempDir()
	epochs := buildEpochs(t, 5, 120)
	encode := func(sketches []*sketch.BottomK) []byte {
		var buf bytes.Buffer
		if _, err := sketch.EncodeSegment(&buf, testSample.WireMetas(2), sketches); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	s := openWritable(t, dir, 2)
	for i, set := range epochs {
		cum := mergeAll(t, epochs[:i+1])
		epoch, seg, err := s.Commit(set, func() ([]*sketch.BottomK, error) { return cum, nil })
		if err != nil || epoch != i+1 {
			t.Fatalf("append %d: epoch %d, err %v", i+1, epoch, err)
		}
		if full := i >= 2; full != (seg != nil) {
			t.Fatalf("append %d returned segment bytes %v, want %v", i+1, seg != nil, full)
		}
		if seg != nil && !bytes.Equal(seg, encode(cum)) {
			t.Fatalf("append %d: returned bytes are not EncodeSegment of the cumulative", i+1)
		}
	}
	s.Close()
	if got := manifestRecords(t, dir); got != "C 5, E 4, E 5" {
		t.Fatalf("manifest records %s, want C 5, E 4, E 5", got)
	}
	if got := segmentFiles(t, dir); !slices.Equal(got, []string{"cum-000005.seg", "epoch-000004.seg", "epoch-000005.seg"}) {
		t.Fatalf("disk holds %v", got)
	}
	r := openWritable(t, dir, 2)
	sameSketchSet(t, "recovered cumulative", r.Cumulative(), mergeAll(t, epochs))
	if !bytes.Equal(r.CumulativeSegment(), encode(r.Cumulative())) {
		t.Fatal("CumulativeSegment after reopen is not EncodeSegment of the cumulative")
	}
	for i, rec := range r.Retained() {
		sameSketchSet(t, fmt.Sprintf("epoch %d", rec.Epoch), rec.Sketches, epochs[3+i])
	}
}

// manifestRecords lists the kind and number of every record in dir's
// manifest, comma-separated.
func manifestRecords(t *testing.T, dir string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n")[1:] {
		kinds = append(kinds, strings.Join(strings.Fields(line)[:2], " "))
	}
	return strings.Join(kinds, ", ")
}

// TestManifestRecordsThroughCommitSequence pins the manifest's records and
// the segment files after each commit of one store's life: the ring fills
// (retain 2, a checkpoint every commit), is full, a cumulative write fails
// (the ring grows one past retain under the old C record), a reopen raises
// retain to 4 (a checkpoint every second commit), and the ring fills and
// turns over again: commit 7 is no checkpoint, so it trims the ring under
// C 6, and commit 8 is. Every commit replaces the manifest with the
// header, the current C record and the ring.
func TestManifestRecordsThroughCommitSequence(t *testing.T) {
	dir := t.TempDir()
	epochs := buildEpochs(t, 8, 100)
	// Segment-write hits: epochs 1-3, cum 3, epoch 4, cum 4 (fires).
	s := openWritableFaults(t, dir, 2, faults.MustParse(FaultSegmentWrite+":err,on=6"))
	steps := []struct{ records, files string }{
		{"E 1", "epoch-000001"},
		{"E 1, E 2", "epoch-000001 epoch-000002"},
		{"C 3, E 2, E 3", "cum-000003 epoch-000002 epoch-000003"},
		{"C 3, E 2, E 3, E 4", "cum-000003 epoch-000002 epoch-000003 epoch-000004"},
		{"C 3, E 2, E 3, E 4, E 5", "cum-000003 epoch-000002 epoch-000003 epoch-000004 epoch-000005"},
		{"C 6, E 3, E 4, E 5, E 6", "cum-000006 epoch-000003 epoch-000004 epoch-000005 epoch-000006"},
		{"C 6, E 4, E 5, E 6, E 7", "cum-000006 epoch-000004 epoch-000005 epoch-000006 epoch-000007"},
		{"C 8, E 5, E 6, E 7, E 8", "cum-000008 epoch-000005 epoch-000006 epoch-000007 epoch-000008"},
	}
	for i, step := range steps {
		if i == 4 {
			s.Close()
			s = openWritable(t, dir, 4)
		}
		epoch, err := s.AppendEpoch(epochs[i])
		var comp *CompactionError
		if wantComp := i == 3; epoch != i+1 || wantComp != errors.As(err, &comp) || !wantComp && err != nil {
			t.Fatalf("commit %d: epoch %d, err %v", i+1, epoch, err)
		}
		if got := manifestRecords(t, dir); got != step.records {
			t.Fatalf("after commit %d the manifest records %s, want %s", i+1, got, step.records)
		}
		if got := strings.ReplaceAll(strings.Join(segmentFiles(t, dir), " "), ".seg", ""); got != step.files {
			t.Fatalf("after commit %d disk holds %s, want %s", i+1, got, step.files)
		}
	}
	s.Close()
	r := openWritable(t, dir, 4)
	sameSketchSet(t, "recovered cumulative", r.Cumulative(), mergeAll(t, epochs))
}

// checkCheckpointedStore opens dir read-only beside its writer (no Close of
// the writer: what a crash right now would leave) after commit n of epochs
// at retain, and checks it: the cumulative is bit-identical to the offline
// merge of epochs 1..n; the directory holds exactly LOCK, MANIFEST, the
// ring's epoch segments and, once the ring has filled, one cum-<c>.seg,
// c the last checkpoint commit (retain+1, then every ⌈retain/2⌉-th), so
// lagging n by less than ⌈retain/2⌉; and Window answers every retained
// window with the window's epochs.
func checkCheckpointedStore(t *testing.T, dir string, epochs [][]*sketch.BottomK, retain, n int) {
	t.Helper()
	ro, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("retain %d, commit %d: reopen: %v", retain, n, err)
	}
	defer ro.Close()
	if ro.Epoch() != n {
		t.Fatalf("retain %d, commit %d: reopened at epoch %d", retain, n, ro.Epoch())
	}
	sameSketchSet(t, fmt.Sprintf("retain %d, commit %d: cumulative", retain, n), ro.Cumulative(), mergeAll(t, epochs[:n]))
	ring := ro.Retained()
	want := []string{"LOCK", "MANIFEST"}
	if c, every := ro.cumRec.n, max(1, (retain+1)/2); n > retain {
		// The first full-ring commit, retain+1, and every every-th after it.
		if wantC := n - (n-retain-1)%every; c != wantC {
			t.Fatalf("retain %d, commit %d: checkpoint through %d, want %d (a lag under %d)", retain, n, c, wantC, every)
		}
		want = append(want, segmentName("cum", c))
	} else if c != 0 {
		t.Fatalf("retain %d, commit %d: a checkpoint through %d before the ring filled", retain, n, c)
	}
	if len(ring) != min(n, retain) {
		t.Fatalf("retain %d, commit %d: %d retained epochs, want %d", retain, n, len(ring), min(n, retain))
	}
	for i, rec := range ring {
		if rec.Epoch != n-len(ring)+1+i {
			t.Fatalf("retain %d, commit %d: retained[%d] is epoch %d", retain, n, i, rec.Epoch)
		}
		want = append(want, segmentName("epoch", rec.Epoch))
	}
	var names []string
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		names = append(names, e.Name())
	}
	slices.Sort(want)
	if !slices.Equal(names, want) {
		t.Fatalf("retain %d, commit %d: directory holds %v, want %v", retain, n, names, want)
	}
	for i, lo := range ring {
		for _, hi := range ring[i:] {
			sets, err := Window(ring, n, lo.Epoch, hi.Epoch)
			if err != nil {
				t.Fatalf("retain %d, commit %d: window %d..%d: %v", retain, n, lo.Epoch, hi.Epoch, err)
			}
			label := fmt.Sprintf("retain %d, commit %d: window %d..%d", retain, n, lo.Epoch, hi.Epoch)
			sameSketchSet(t, label, mergeAll(t, sets), mergeAll(t, epochs[lo.Epoch-1:hi.Epoch]))
		}
	}
}

// TestCheckpointMatrix: at every retain the cumulative segment is a
// checkpoint written by the first full-ring commit and then by every
// ⌈retain/2⌉-th, and a store read after any commit — with the writer
// still open, as a crash would leave it — recovers the exact cumulative
// from the checkpoint and the epochs above it, holds retain epoch segments
// plus one checkpoint, and answers every retained window.
func TestCheckpointMatrix(t *testing.T) {
	for _, retain := range []int{0, 1, 2, 3, 8, 16} {
		n := 3*((retain+1)/2) + 2
		epochs := buildEpochs(t, n, 40)
		dir := t.TempDir()
		s := openWritable(t, dir, retain)
		for i, set := range epochs {
			if epoch, err := s.AppendEpoch(set); err != nil || epoch != i+1 {
				t.Fatalf("retain %d: commit %d: epoch %d, err %v", retain, i+1, epoch, err)
			}
			checkCheckpointedStore(t, dir, epochs, retain, i+1)
		}
	}
}

// TestCheckpointWriteFaultKeepsUncoveredEpochs: a segment-write fault on a
// checkpoint's cumulative segment is a *CompactionError; the epoch is
// acknowledged, the ring then keeps every epoch the old C record does not
// cover (one past retain), and the next commit — a checkpoint again —
// catches up. At retain 4 (a checkpoint every 2 commits) hit 6 is the
// first checkpoint's cumulative segment (commit 5, when no C record exists
// yet) and hit 12 a later one's (commit 9, under C 7).
func TestCheckpointWriteFaultKeepsUncoveredEpochs(t *testing.T) {
	const retain = 4
	for _, c := range []struct{ hit, failing int }{{6, 5}, {12, 9}} {
		epochs := buildEpochs(t, 10, 40)
		dir := t.TempDir()
		s := openWritableFaults(t, dir, retain, faults.MustParse(fmt.Sprintf("%s:err,on=%d", FaultSegmentWrite, c.hit)))
		for i, set := range epochs {
			n := i + 1
			epoch, err := s.AppendEpoch(set)
			var comp *CompactionError
			if epoch != n || (n == c.failing) != errors.As(err, &comp) || n != c.failing && err != nil {
				t.Fatalf("hit %d: commit %d: epoch %d, err %v", c.hit, n, epoch, err)
			}
			ring := s.Retained()
			if ring[0].Epoch > s.cumRec.n+1 {
				t.Fatalf("hit %d: commit %d dropped epochs %d..%d, which C %d does not cover", c.hit, n, s.cumRec.n+1, ring[0].Epoch-1, s.cumRec.n)
			}
			if want := min(n, retain) + map[bool]int{true: 1}[n == c.failing]; len(ring) != want {
				t.Fatalf("hit %d: commit %d: %d retained epochs, want %d", c.hit, n, len(ring), want)
			}
			if n == c.failing+1 && s.cumRec.n != n {
				t.Fatalf("hit %d: commit %d is under C %d, want the catch-up checkpoint", c.hit, n, s.cumRec.n)
			}
			ro, err := Open(Config{Dir: dir})
			if err != nil {
				t.Fatalf("hit %d: commit %d: reopen: %v", c.hit, n, err)
			}
			sameSketchSet(t, fmt.Sprintf("hit %d: commit %d: cumulative", c.hit, n), ro.Cumulative(), mergeAll(t, epochs[:n]))
			ro.Close()
		}
	}
}

// TestReadersDuringCommits: the Store's readers do not wait for a commit's
// merge and writes, so they run beside commits; under -race every reader
// sees a consistent acknowledged state (its ring ends at its epoch) while
// epochs are committed at retain 3.
func TestReadersDuringCommits(t *testing.T) {
	epochs := buildEpochs(t, 12, 40)
	s := openWritable(t, t.TempDir(), 3)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				s.mu.Lock()
				epoch, ring := s.epoch, s.retained
				s.mu.Unlock()
				if n := len(ring); n > 0 && ring[n-1].Epoch != epoch {
					t.Errorf("ring ends at %d, epoch %d", ring[n-1].Epoch, epoch)
					return
				}
				_, _, _ = s.Cumulative(), s.DiskBytes(), s.SegmentKeyRatio()
			}
		}()
	}
	appendAll(t, s, epochs)
	close(done)
	wg.Wait()
	sameSketchSet(t, "cumulative", s.Cumulative(), mergeAll(t, epochs))
}

// TestCloseWaitsForCommit: Close releases the writer lock only after a
// commit in flight — here one whose merge is still running — is
// acknowledged, so no second writer can open the directory under it.
func TestCloseWaitsForCommit(t *testing.T) {
	epochs := buildEpochs(t, 1, 40)
	dir := t.TempDir()
	s := openWritable(t, dir, 2)
	merging, closed := make(chan struct{}), make(chan struct{})
	go func() {
		<-merging
		s.Close()
		close(closed)
	}()
	_, _, err := s.Commit(epochs[0], func() ([]*sketch.BottomK, error) {
		close(merging)
		select {
		case <-closed:
			t.Error("Close returned while a commit was merging")
		case <-time.After(50 * time.Millisecond):
		}
		return epochs[0], nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-closed
	if r := openWritable(t, dir, 2); r.Epoch() != 1 {
		t.Fatalf("reopened at epoch %d, want 1", r.Epoch())
	}
}
