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
// the store is not broken (nothing reached the manifest) and the retried
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
	// Nothing reached the manifest, so the store is not broken: the retry
	// succeeds in place.
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

// TestManifestAppendFailureBreaksStoreUntilReopen: a failed manifest
// append may strand partial bytes, so the store refuses further appends
// (PR-5 contract) until a reopen re-establishes a clean tail.
func TestManifestAppendFailureBreaksStoreUntilReopen(t *testing.T) {
	dir := t.TempDir()
	epochs := buildEpochs(t, 2, 150)
	s := openWritableFaults(t, dir, 4, faults.MustParse(FaultManifestAppend+":err,on=2"))

	if _, err := s.AppendEpoch(epochs[0]); err != nil {
		t.Fatal(err)
	}
	_, err := s.AppendEpoch(epochs[1])
	var inj *faults.InjectedError
	if !errors.As(err, &inj) || inj.Point != FaultManifestAppend {
		t.Fatalf("append error %v is not the injected manifest-append fault", err)
	}
	// Append-refusal: even though the fault will not fire again, the store
	// must refuse to append onto a possibly-partial manifest line.
	if _, err := s.AppendEpoch(epochs[1]); err == nil || !strings.Contains(err.Error(), "reopen") {
		t.Fatalf("broken store accepted an append (err %v)", err)
	}
	s.Close()

	re := openWritable(t, dir, 4)
	if re.Epoch() != 1 {
		t.Fatalf("recovered epoch %d, want 1", re.Epoch())
	}
	if epoch, err := re.AppendEpoch(epochs[1]); err != nil || epoch != 2 {
		t.Fatalf("append after reopen: epoch %d, err %v", epoch, err)
	}
	sameSketchSet(t, "cumulative after heal", re.Cumulative(), mergeAll(t, epochs))
}

// TestTornManifestAppendHealedOnReopen: "err,torn" leaves half the
// manifest line durably in the file — the bytes a real short write
// strands. Reopen must drop the unacknowledged torn tail, recover the
// acknowledged prefix bit-identically, and accept appends again.
func TestTornManifestAppendHealedOnReopen(t *testing.T) {
	dir := t.TempDir()
	epochs := buildEpochs(t, 2, 150)
	s := openWritableFaults(t, dir, 4, faults.MustParse(FaultManifestAppend+":err,torn,on=2"))

	if _, err := s.AppendEpoch(epochs[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendEpoch(epochs[1]); err == nil {
		t.Fatal("torn manifest append reported success")
	}
	s.Close()

	re := openWritable(t, dir, 4)
	if re.Epoch() != 1 {
		t.Fatalf("recovered epoch %d, want 1", re.Epoch())
	}
	sameSketchSet(t, "recovered epoch 1", re.Cumulative(), mergeAll(t, epochs[:1]))
	if epoch, err := re.AppendEpoch(epochs[1]); err != nil || epoch != 2 {
		t.Fatalf("append after torn-tail heal: epoch %d, err %v", epoch, err)
	}
	sameSketchSet(t, "cumulative after heal", re.Cumulative(), mergeAll(t, epochs))
}

// TestManifestFsyncFailureBreaksStore: after a failed manifest fsync the
// line's durability is unknown, so the epoch must not be reported
// acknowledged and the store must refuse further appends until reopen.
func TestManifestFsyncFailureBreaksStore(t *testing.T) {
	dir := t.TempDir()
	epochs := buildEpochs(t, 1, 150)
	s := openWritableFaults(t, dir, 4, faults.MustParse(FaultManifestFsync+":err,on=1"))

	_, err := s.AppendEpoch(epochs[0])
	var inj *faults.InjectedError
	if !errors.As(err, &inj) || inj.Point != FaultManifestFsync {
		t.Fatalf("append error %v is not the injected manifest-fsync fault", err)
	}
	if _, err := s.AppendEpoch(epochs[0]); err == nil || !strings.Contains(err.Error(), "reopen") {
		t.Fatalf("broken store accepted an append (err %v)", err)
	}
	s.Close()

	// The line reached the file before the (simulated) fsync failure, so
	// reopen legitimately recovers the epoch — the contract is only that
	// the caller was never told it was acknowledged, and that recovered
	// state is self-consistent.
	re := openWritable(t, dir, 4)
	if re.Epoch() != 1 {
		t.Fatalf("recovered epoch %d, want 1", re.Epoch())
	}
	sameSketchSet(t, "recovered cumulative", re.Cumulative(), mergeAll(t, epochs))
}

// TestSegmentFaultDuringCompactionIsTypedCompactionError: a full-ring
// commit writes its cumulative segment through the same fault points; a
// failure there surfaces as a *CompactionError (the epoch itself is
// acknowledged through the append form) wrapping the injected fault.
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
// segment of a full-ring commit fails, the epoch is committed in the
// append form (a *CompactionError): the ring holds retain+1 epochs, the
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

// TestManifestRewriteFaultLeavesEpochUnacknowledged: a fault in the
// full-ring commit's manifest rewrite — before the rename — fails the
// commit: the epoch is not acknowledged, the old manifest is untouched,
// the store stays usable, and the retried commit succeeds.
func TestManifestRewriteFaultLeavesEpochUnacknowledged(t *testing.T) {
	for _, point := range []string{FaultManifestAppend, FaultManifestFsync} {
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			epochs := buildEpochs(t, 3, 120)
			// Hit 1 is epoch 1's append, hit 2 epoch 2's rewrite.
			s := openWritableFaults(t, dir, 1, faults.MustParse(point+":err,on=2"))
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
				t.Fatal("failed rewrite changed the manifest")
			}
			if epoch, err := s.AppendEpoch(epochs[1]); err != nil || epoch != 2 {
				t.Fatalf("retry: epoch %d, err %v", epoch, err)
			}
			s.Close()
			re := openWritable(t, dir, 1)
			sameSketchSet(t, "recovered cumulative", re.Cumulative(), mergeAll(t, epochs[:2]))
		})
	}
}
