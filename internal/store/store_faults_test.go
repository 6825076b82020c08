package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"coordsample/internal/faults"
)

// openWritableFaults opens a writable store with an injected fault set.
func openWritableFaults(t *testing.T, dir string, retain int, fs *faults.Set) *Store {
	t.Helper()
	s, err := Open(Config{Dir: dir, Retain: retain, Sample: testSample, Assignments: 2, Faults: fs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestSegmentWriteErrorLeavesEpochUnacknowledged: an ENOSPC-style failure
// writing the segment fails the append before anything is acknowledged;
// nothing reached the manifest, so the store stays usable and the retried
// append persists the same epoch, recovered bit-identically.
func TestSegmentWriteErrorLeavesEpochUnacknowledged(t *testing.T) {
	dir := t.TempDir()
	epochs := buildEpochs(t, 2, 150)
	fs := faults.MustParse(FaultSegmentWrite + ":err,on=2")
	s := openWritableFaults(t, dir, 4, fs)

	if _, err := s.AppendEpoch(epochs[0]); err != nil {
		t.Fatal(err)
	}
	_, err := s.AppendEpoch(epochs[1])
	var inj *faults.InjectedError
	if !errors.As(err, &inj) || inj.Point != FaultSegmentWrite {
		t.Fatalf("append error %v is not the injected segment-write fault", err)
	}
	if s.Epoch() != 1 {
		t.Fatalf("failed append acknowledged: epoch %d", s.Epoch())
	}
	// Nothing reached the manifest: the retry succeeds in place.
	epoch, err := s.AppendEpoch(epochs[1])
	if err != nil || epoch != 2 {
		t.Fatalf("retry: epoch %d, err %v", epoch, err)
	}
	s.Close()

	re := openWritable(t, dir, 4)
	if re.Epoch() != 2 {
		t.Fatalf("recovered epoch %d, want 2", re.Epoch())
	}
	sameSketchSet(t, "recovered cumulative", re.Cumulative(), mergeAll(t, epochs))
	if got := fs.Hits(FaultSegmentWrite); got != 3 {
		t.Fatalf("segment-write hit %d times, want 3", got)
	}
}

// TestSegmentFsyncErrorLeavesEpochUnacknowledged: same contract when the
// segment fsync fails instead of the write.
func TestSegmentFsyncErrorLeavesEpochUnacknowledged(t *testing.T) {
	dir := t.TempDir()
	epochs := buildEpochs(t, 1, 150)
	s := openWritableFaults(t, dir, 4, faults.MustParse(FaultSegmentFsync+":err,on=1"))

	_, err := s.AppendEpoch(epochs[0])
	var inj *faults.InjectedError
	if !errors.As(err, &inj) || inj.Point != FaultSegmentFsync {
		t.Fatalf("append error %v is not the injected segment-fsync fault", err)
	}
	if s.Epoch() != 0 {
		t.Fatalf("failed append acknowledged: epoch %d", s.Epoch())
	}
	if epoch, err := s.AppendEpoch(epochs[0]); err != nil || epoch != 1 {
		t.Fatalf("retry: epoch %d, err %v", epoch, err)
	}
}

// TestTornSegmentWriteRefusedAsCorruptOnReopen: a torn segment write that
// lies about success leaves the manifest acknowledging bytes the file does
// not hold. Recovery must surface that as a typed *CorruptError — never
// serve the half-written sketches.
func TestTornSegmentWriteRefusedAsCorruptOnReopen(t *testing.T) {
	dir := t.TempDir()
	epochs := buildEpochs(t, 1, 150)
	s := openWritableFaults(t, dir, 4, faults.MustParse(FaultSegmentWrite+":torn,on=1"))

	// The tear is silent: the append "succeeds" and acknowledges the epoch.
	if epoch, err := s.AppendEpoch(epochs[0]); err != nil || epoch != 1 {
		t.Fatalf("torn append: epoch %d, err %v", epoch, err)
	}
	s.Close()

	_, err := Open(Config{Dir: dir, Retain: 4, Sample: testSample, Assignments: 2})
	var corrupt *CorruptError
	if !errors.As(err, &corrupt) {
		t.Fatalf("reopen over a torn segment: %v, want *CorruptError", err)
	}
	if !strings.Contains(corrupt.Path, "epoch-000001.seg") {
		t.Fatalf("corruption attributed to %q, want the torn segment", corrupt.Path)
	}
}

// TestManifestFaultWhileFillingLeavesEpochUnacknowledged: a fault fsyncing
// the new manifest while the ring fills fails the commit before the rename.
func TestManifestFaultWhileFillingLeavesEpochUnacknowledged(t *testing.T) {
	spec := FaultManifestFsync + ":err"
	t.Run(spec, func(t *testing.T) { checkManifestFault(t, 4, spec) })
}

// TestManifestAppendFailureBreaksStoreUntilReopen: a fault writing the new
// manifest while the ring fills fails the commit before the rename. The
// name dates from the append-only manifest, when such a failure left a
// possibly-partial line and the store refused appends until reopened; the
// rewritten manifest is untouched, so the store now stays usable and a
// retry succeeds with no reopen (checkManifestFault pins both).
func TestManifestAppendFailureBreaksStoreUntilReopen(t *testing.T) {
	checkManifestFault(t, 4, FaultManifestAppend+":err")
}

// TestTornManifestAppendHealedOnReopen: a torn manifest write changes
// nothing on disk, since the partial temp file is never renamed into place;
// reopening recovers the last acknowledged epoch and appends on from it.
func TestTornManifestAppendHealedOnReopen(t *testing.T) {
	checkManifestFault(t, 4, FaultManifestAppend+":err,torn")
}

// checkManifestFault commits epoch 1 into a store retaining retain epochs,
// then fails epoch 2's commit with the manifest fault spec (its second
// hit): MANIFEST must be byte-identical, the epoch unacknowledged, a crash
// at that moment must recover epoch 1, the store must stay usable — the
// retry succeeds with no reopen — and a reopen must recover both epochs.
func checkManifestFault(t *testing.T, retain int, spec string) {
	dir := t.TempDir()
	epochs := buildEpochs(t, 2, 120)
	point, _, _ := strings.Cut(spec, ":")
	s := openWritableFaults(t, dir, retain, faults.MustParse(spec+",on=2"))
	appendAll(t, s, epochs[:1])
	manifest, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.AppendEpoch(epochs[1])
	var inj *faults.InjectedError
	if !errors.As(err, &inj) || inj.Point != point {
		t.Fatalf("append error %v is not the injected %s fault", err, point)
	}
	if s.Epoch() != 1 {
		t.Fatalf("failed commit acknowledged: epoch %d", s.Epoch())
	}
	if now, _ := os.ReadFile(filepath.Join(dir, manifestName)); !bytes.Equal(now, manifest) {
		t.Fatal("failed commit changed the manifest")
	}
	crashed, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("recovery after the failed commit: %v", err)
	}
	crashed.Close()
	if crashed.Epoch() != 1 {
		t.Fatalf("recovery after the failed commit: epoch %d, want 1", crashed.Epoch())
	}
	if epoch, err := s.AppendEpoch(epochs[1]); err != nil || epoch != 2 {
		t.Fatalf("retry: epoch %d, err %v", epoch, err)
	}
	s.Close()
	re := openWritable(t, dir, retain)
	if re.Epoch() != 2 {
		t.Fatalf("recovered epoch %d, want 2", re.Epoch())
	}
	sameSketchSet(t, "recovered cumulative", re.Cumulative(), mergeAll(t, epochs))
}

// TestSegmentFaultDuringCompactionIsTypedCompactionError: a full-ring
// commit writes its cumulative segment through the same fault points; a
// failure there surfaces as a *CompactionError (the epoch itself is
// acknowledged under the old C record) wrapping the injected fault.
func TestSegmentFaultDuringCompactionIsTypedCompactionError(t *testing.T) {
	dir := t.TempDir()
	epochs := buildEpochs(t, 2, 150)
	// Hit 1 is epoch 1's segment; append 2 fills the ring past retain=1 and
	// draws hit 2 for its epoch segment, then hit 3 for the cumulative one.
	s := openWritableFaults(t, dir, 1, faults.MustParse(FaultSegmentWrite+":err,on=3"))

	if _, err := s.AppendEpoch(epochs[0]); err != nil {
		t.Fatal(err)
	}
	epoch, err := s.AppendEpoch(epochs[1])
	if epoch != 2 {
		t.Fatalf("epoch %d, want 2 (the epoch is acknowledged without its cumulative segment)", epoch)
	}
	var comp *CompactionError
	if !errors.As(err, &comp) {
		t.Fatalf("compaction failure %v is not a *CompactionError", err)
	}
	var inj *faults.InjectedError
	if !errors.As(err, &inj) || inj.Point != FaultSegmentWrite {
		t.Fatalf("compaction failure %v does not wrap the injected fault", err)
	}
	s.Close()

	re := openWritable(t, dir, 1)
	if re.Epoch() != 2 {
		t.Fatalf("recovered epoch %d, want 2", re.Epoch())
	}
	sameSketchSet(t, "recovered cumulative", re.Cumulative(), mergeAll(t, epochs))
}

// TestCumulativeWriteFaultLeavesRingOneOver: when only the cumulative
// segment of a full-ring commit fails, the epoch is committed under the
// old C record (a *CompactionError): the ring holds retain+1 epochs, the
// cumulative segment still covers the older prefix, a reopen recovers
// everything, and the next full-ring commit restores the bound.
func TestCumulativeWriteFaultLeavesRingOneOver(t *testing.T) {
	dir := t.TempDir()
	epochs := buildEpochs(t, 4, 120)
	// Hits: epoch 1, epoch 2 + cum 2, epoch 3 + cum 3 (fires), epoch 4 + cum 4.
	s := openWritableFaults(t, dir, 1, faults.MustParse(FaultSegmentWrite+":err,on=5"))
	appendAll(t, s, epochs[:2])
	epoch, err := s.AppendEpoch(epochs[2])
	var comp *CompactionError
	if epoch != 3 || !errors.As(err, &comp) {
		t.Fatalf("append 3: epoch %d, err %v; want 3 and a *CompactionError", epoch, err)
	}
	if n := len(s.Retained()); n != 2 {
		t.Fatalf("ring holds %d epochs after the failed cumulative write, want retain+1 = 2", n)
	}
	if s.CumulativeSegment() != nil {
		t.Fatal("CumulativeSegment returned bytes of a segment that does not cover the last epoch")
	}
	sameSketchSet(t, "cumulative", s.Cumulative(), mergeAll(t, epochs[:3]))
	s.Close()

	re := openWritableFaults(t, dir, 1, nil)
	if re.Epoch() != 3 || len(re.Retained()) != 2 || re.CumulativeSegment() != nil {
		t.Fatalf("reopened: epoch %d, %d retained, segment %v; want 3, 2, none", re.Epoch(), len(re.Retained()), re.CumulativeSegment() != nil)
	}
	sameSketchSet(t, "recovered cumulative", re.Cumulative(), mergeAll(t, epochs[:3]))
	if epoch, err := re.AppendEpoch(epochs[3]); err != nil || epoch != 4 {
		t.Fatalf("append 4: epoch %d, err %v", epoch, err)
	}
	if n := len(re.Retained()); n != 1 {
		t.Fatalf("ring holds %d epochs after the next full-ring commit, want 1", n)
	}
	re.Close()
	if got := segmentFiles(t, dir); !slices.Equal(got, []string{"cum-000004.seg", "epoch-000004.seg"}) {
		t.Fatalf("disk holds %v, want the epoch 4 and cumulative 4 segments", got)
	}
	last := openWritable(t, dir, 1)
	sameSketchSet(t, "final cumulative", last.Cumulative(), mergeAll(t, epochs))
}

// TestManifestRewriteFaultLeavesEpochUnacknowledged: the same contract
// once the ring is full, where the failed commit had also written its
// cumulative segment.
func TestManifestRewriteFaultLeavesEpochUnacknowledged(t *testing.T) {
	for _, point := range []string{FaultManifestAppend, FaultManifestFsync} {
		t.Run(point, func(t *testing.T) { checkManifestFault(t, 1, point+":err") })
	}
}
