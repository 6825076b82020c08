// Package store is the durable epoch store: it persists every frozen
// epoch's fingerprinted sketch set to disk and recovers it on startup, so
// a server restart — graceful or SIGKILL — loses nothing that was ever
// acknowledged. It is what turns the in-memory serving layer of
// internal/server into a database-like system: the paper's headline
// scenario is "snapshots of an evolving database at multiple points in
// time" treated as coordinated weight assignments, and retaining the
// per-epoch sketches (rather than only their cumulative merge) is what
// makes time itself queryable — any range of retained epochs (Window checks
// it against the ring and returns its epoch sets) merges on demand, in the
// caller's core.Merged, into the exact sketch of that time window, by the
// same merge lemma that makes sharding exact.
//
// # On-disk layout
//
//	<dir>/MANIFEST            record of acknowledged epochs, replaced whole by every commit
//	<dir>/epoch-000042.seg    one retained epoch's sketch set (segment file)
//	<dir>/cum-000040.seg      cumulative segment (a checkpoint): epochs 1..40 merged
//	<dir>/LOCK                writer flock (held while a writable Store is open)
//
// Writable opens take an exclusive flock on LOCK: two writers on one
// directory would interleave manifest commits and overwrite each other's
// segments, so the second open is refused. The lock dies with the
// process, so a SIGKILL never wedges the store; read-only opens
// (cws-merge -store) take no lock and work alongside a live server.
//
// A segment file is the multi-sketch framing of internal/sketch
// (EncodeSegment): one sorted dictionary of the keys every assignment's
// bottom-k sketch indexes into, closed by a CRC-32C. Version 3 leaves out
// the ranks IPPS shared-seed sketches derive from their keys; version 2,
// for every other configuration and every store written before version 3,
// stores them (both are read; the writer picks). Segments are written
// write-tmp → fsync → rename → fsync(dir), so a crash mid-write leaves at
// worst an ignored *.tmp file, never a half-written segment under the
// final name.
//
// # Manifest
//
// The manifest is the commit record: an epoch exists once — and only once
// — a manifest holding its line is durable. The header names the format
// and the assignment count; each subsequent line records one durable
// segment with its own CRC-32C:
//
//	cws-store v1 assignments=2
//	C 8 cum-000008.seg 8080 5e6f7a8b fps=... 1c2d3e4f
//	E 8 epoch-000008.seg 4242 1a2b3c4d fps=00c0ffee...,00abcdef... 9f8e7d6c
//	E 9 epoch-000009.seg 4240 2b3c4d5e fps=00c0ffee...,00abcdef... 8e7d6c5b
//
// "E n" records epoch n: its segment file, byte size, segment checksum,
// and per-assignment fingerprints. "C t" records the cumulative segment,
// the exact merge of epochs 1..t: a checkpoint, which may lag the last
// epoch. The E lines are the retained ring, which may start at or below t
// and always holds every epoch above it. A commit takes one form. It
// encodes the epoch segment first — the encoder hands the epoch's sketches
// their key orders, so the caller's merge of them onto the cumulative
// derives the cumulative's — and writes, fsyncs and renames it while that
// merge runs. A commit is a checkpoint when the ring is full and the
// epoch is ⌈retain/2⌉ or more past the C record (the first full-ring
// commit, then every ⌈retain/2⌉-th; every commit at retain ≤ 1): it then
// also writes the merge, encoded, as the cumulative segment of epochs 1..n.
// The commit fsyncs the directory once, then replaces the manifest
// atomically (temp file, fsync, rename, directory fsync) with the header,
// the current C record (none before the first) and the ring's E lines, the
// last retain of them once the ring is full. Off a checkpoint the new
// manifest's temp file is written and fsynced during the merge too, as
// nothing merged changes it. The rename is the acknowledgement point; only
// then are the expired epoch and the old cumulative unlinked. A commit that
// fails before the rename leaves the old manifest in force and the store
// usable.
//
// # Recovery invariants
//
// Open replays the manifest and reloads every referenced segment under
// strict validation (size, checksum, full per-sketch revalidation,
// fingerprints); the segments decode in parallel, and their errors are
// reported in manifest order. A C record covering the last epoch is the
// cumulative, with no merge; otherwise it merges with the E records above
// it (fewer than ⌈retain/2⌉ of them, unless a checkpoint write failed), as
// they merged live, each assignment on its own worker. OpenPhases reports
// the time spent reading, decoding and merging. The guarantees:
//
//   - Every acknowledged epoch is recovered bit-identically: same entries,
//     same conditioning ranks, same fingerprints — so a restarted server
//     answers every query exactly as the pre-crash server did.
//   - A segment written by a commit that never reached its rename is an
//     orphan: the next commit of the same epoch number overwrites it, and
//     a writable open garbage-collects it.
//   - Any other damage — a corrupt or unterminated manifest line (one
//     naming a segment other than its own epoch-<n>.seg or cum-<n>.seg
//     included), a missing, truncated, or bit-flipped segment, a version-1
//     segment — is acknowledged state that cannot be served; Open fails
//     with a typed *CorruptError rather than ever serving corrupt sketches.
//
// # Retention
//
// A ring of the most recent epochs is retained for epoch-range queries,
// and the cumulative is rebuilt from the checkpoint and the ring epochs
// above it: disk holds retain epoch segments plus one checkpoint, and
// nothing is merged to bound it. A commit that is no checkpoint still
// trims the ring to retain and unlinks the expired epoch, which the C
// record covers: it lags by less than ⌈retain/2⌉ ≤ retain. If only a
// checkpoint's cumulative write fails, the epoch is committed under the old
// C record with the ring untrimmed, one past retain, so the ring keeps
// every epoch the C record does not cover (a *CompactionError); the next
// commit is a checkpoint again and catches up.
package store

import (
	"cmp"
	"errors"
	"fmt"
	"hash/crc32"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"coordsample/internal/core"
	"coordsample/internal/faults"
	"coordsample/internal/obs"
	"coordsample/internal/shard"
	"coordsample/internal/sketch"
)

// manifestName is the manifest file name inside a store directory.
const manifestName = "MANIFEST"

// manifestHeaderPrefix opens every manifest.
const manifestHeaderPrefix = "cws-store v1 assignments="

// castagnoli is the CRC-32C table guarding manifest lines (segment bodies
// carry their own CRC via the sketch segment framing).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Config configures Open.
type Config struct {
	// Dir is the store directory; created if absent on a writable open.
	Dir string
	// Retain is the ring of most recent epochs kept individually for
	// epoch-range queries; older epochs live on only in the cumulative
	// segment, a checkpoint written every ⌈Retain/2⌉ commits once the ring
	// is full. 0 keeps none (no time travel).
	Retain int
	// Sample and Assignments describe the sketches the store will hold.
	// Both set (K ≥ 1, Assignments ≥ 1) opens the store writable and
	// verifies every recovered sketch against this configuration; both
	// zero opens read-only, accepting whatever configuration the store
	// holds (the sketches are still fully self-validated).
	Sample      core.Config
	Assignments int
	// Faults injects failures at the store's durability points (see the
	// fault-point names below); nil — the production state — injects
	// nothing.
	Faults *faults.Set
	// Log, when non-nil, receives the store's structured log events
	// (cumulative segments written) tagged component=store. Nil
	// discards them.
	Log *slog.Logger
}

// The store's injectable fault points. Every commit draws them all before
// any of its concurrent work, in file order: the epoch segment's write and
// fsync, a checkpoint's cumulative segment's, then the manifest's — so a
// schedule stays deterministic by hit count, and the manifest points fire
// once per commit, whether or not it gets as far as the manifest.
const (
	// FaultSegmentWrite covers writing a segment's bytes to its temp
	// file: "err" simulates ENOSPC (the commit fails, the epoch is never
	// acknowledged); "torn" silently truncates the written bytes while
	// reporting success — the manifest then acknowledges a size the file
	// does not have, which recovery must refuse as a *CorruptError.
	FaultSegmentWrite = "store.segment-write"
	// FaultSegmentFsync covers fsyncing the segment temp file ("err"
	// only).
	FaultSegmentFsync = "store.segment-fsync"
	// FaultManifestAppend covers writing a commit's new manifest: "err"
	// fails the commit before the temp file is written, leaving the old
	// manifest in force and the store usable ("torn" adds nothing: a
	// partial temp file is never renamed into place).
	FaultManifestAppend = "store.manifest-append"
	// FaultManifestFsync covers fsyncing the new manifest's temp file
	// before its rename ("err" only; same outcome as FaultManifestAppend).
	FaultManifestFsync = "store.manifest-fsync"
)

// CorruptError reports acknowledged store state that cannot be trusted: a
// corrupt or unterminated manifest line, or a referenced segment
// that is missing, truncated, or fails checksum/validation. The store
// refuses to open rather than serve it.
type CorruptError struct {
	Path   string // offending file
	Detail string
	Err    error
}

func (e *CorruptError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("store: %s: %s: %v", e.Path, e.Detail, e.Err)
	}
	return fmt.Sprintf("store: %s: %s", e.Path, e.Detail)
}

func (e *CorruptError) Unwrap() error { return e.Err }

// MismatchError reports a store whose recovered contents disagree with the
// configuration it was opened under (different assignment count, or
// sketches fingerprinted under a different Family/Mode/Seed/K) — merging
// the two worlds would corrupt every estimate, so Open fails instead.
type MismatchError struct {
	Detail string
}

func (e *MismatchError) Error() string { return "store: " + e.Detail }

// CompactionError reports an epoch acknowledged under the old C record
// because its checkpoint's cumulative segment could not be written (disk
// full, I/O error): the epoch is safe — treat the commit as successful —
// and the next commit writes the checkpoint again.
type CompactionError struct {
	Err error
}

func (e *CompactionError) Error() string { return fmt.Sprintf("store: compaction: %v", e.Err) }
func (e *CompactionError) Unwrap() error { return e.Err }

// EpochRecord is one retained epoch: its number and its per-assignment
// sketches (index = assignment).
type EpochRecord struct {
	Epoch    int
	Sketches []*sketch.BottomK
}

// Window validates the epoch window lo..hi (1 ≤ lo ≤ hi, as
// cliquery.ParseEpochRange returns it) against ring, the ascending retained
// epochs of a store or node whose last epoch is epoch, and returns the
// window's epoch sketch sets, oldest first: disjoint key sets, which merge
// into the window's exact sketches. An error is worded for the client that
// asked for the window.
func Window(ring []EpochRecord, epoch, lo, hi int) ([][]*sketch.BottomK, error) {
	if hi > epoch {
		return nil, fmt.Errorf("epoch range %d..%d exceeds the current epoch %d", lo, hi, epoch)
	}
	if len(ring) == 0 {
		return nil, fmt.Errorf("no epochs are retained (configure -retain, or freeze first)")
	}
	if first := ring[0].Epoch; lo < first {
		return nil, fmt.Errorf("epochs %d..%d are no longer retained (retained window is %d..%d); raise -retain to keep more history", lo, min(hi, first-1), first, epoch)
	}
	var sets [][]*sketch.BottomK
	for _, rec := range ring {
		if rec.Epoch >= lo && rec.Epoch <= hi {
			sets = append(sets, rec.Sketches)
		}
	}
	return sets, nil
}

// storedEpoch is one retained epoch plus the segment accounting (byte
// size and segment CRC, as recorded in the manifest) that a commit's new
// manifest needs — carried in memory so a commit never re-reads kept
// segment files, and never has to trust a possibly rotten file's own
// trailer for the manifest line.
type storedEpoch struct {
	EpochRecord
	size int
	crc  uint32
}

// Store is a durable epoch store. Open recovers it; Commit (and
// AppendEpoch, which merges for the caller) commits a frozen epoch, the
// only mutating operation. Methods are safe for concurrent use.
type Store struct {
	commitMu    sync.Mutex // serializes Commit; held across its merge and writes, which mu is not
	mu          sync.Mutex
	dir         string
	retain      int
	writable    bool
	sample      core.Config // the stored sketches' configuration: Config.Sample, or on a read-only open its first segment's
	assignments int

	epoch    int               // last acknowledged epoch
	cumRec   manifestRecord    // the manifest's C record: the cumulative segment of epochs 1..cumRec.n (n = 0: none)
	retained []storedEpoch     // the ring: consecutive epochs ending at epoch, ascending
	cum      []*sketch.BottomK // exact merge of epochs 1..epoch (nil when epoch == 0)
	cumSeg   []byte            // the cumulative segment's bytes when it covers epoch and is canonical
	lock     *os.File          // flock-held LOCK file on writable stores
	broken   bool              // a manifest's rename may not be durable; commits refused until reopen
	bytes    int64             // total bytes of referenced segment files
	keyRatio float64           // dictionary keys ÷ entries of the last segment written
	faults   *faults.Set       // injectable durability faults (nil in production)
	phases   OpenPhases        // how long Open took, by phase
	log      *slog.Logger      // component-tagged structured logger (never nil)

	// Durability latency histograms, always allocated so the recording
	// sites stay branch-free; a serving process registers them in its
	// metrics registry via Metrics().
	segWriteHist      *obs.Histogram // segment write+fsync+rename, per durable file
	manifestFsyncHist *obs.Histogram // manifest fsync — the epoch ack point
}

// OpenPhases is how long Open took, by phase. They add up to Open's
// duration.
type OpenPhases struct {
	Open   time.Duration // the lock, the manifest, and reading and checksumming every referenced segment
	Decode time.Duration // decoding and validating the segments
	Merge  time.Duration // the cumulative: the C record's segment merged with the epochs above it
}

// OpenPhases returns how long Open took, by phase.
func (s *Store) OpenPhases() OpenPhases { return s.phases }

// Metrics exposes the store's internal latency histograms so a serving
// process can register them for /metrics exposition.
type Metrics struct {
	SegmentWrite  *obs.Histogram
	ManifestFsync *obs.Histogram
}

// Metrics returns the store's latency histograms.
func (s *Store) Metrics() Metrics {
	return Metrics{SegmentWrite: s.segWriteHist, ManifestFsync: s.manifestFsyncHist}
}

// Open opens (creating, when writable and absent) the store at cfg.Dir and
// recovers all acknowledged epochs. See Config for the writable/read-only
// distinction and the package documentation for the recovery guarantees.
func Open(cfg Config) (*Store, error) {
	start := time.Now()
	writable := cfg.Assignments != 0 || cfg.Sample != (core.Config{})
	s := &Store{
		dir: cfg.Dir, retain: cfg.Retain, writable: writable, faults: cfg.Faults,
		log:          obs.Component(cfg.Log, "store"),
		segWriteHist: &obs.Histogram{}, manifestFsyncHist: &obs.Histogram{},
	}
	if writable {
		if err := cfg.Sample.Check(); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		if cfg.Assignments < 1 {
			return nil, fmt.Errorf("store: need at least one assignment, got %d", cfg.Assignments)
		}
		if cfg.Retain < 0 {
			return nil, fmt.Errorf("store: negative retain %d", cfg.Retain)
		}
		s.sample = cfg.Sample
		s.assignments = cfg.Assignments
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		// Exclusive writer lock: two writable opens of one directory would
		// interleave manifest commits and overwrite each other's segments,
		// silently corrupting acknowledged history. flock is released
		// automatically if the process dies, so a crash never wedges the
		// store.
		if err := s.acquireLock(); err != nil {
			return nil, err
		}
	}
	if err := s.recover(); err != nil {
		s.releaseLock()
		return nil, err
	}
	if writable {
		s.collectGarbage()
	}
	s.phases.Open = time.Since(start) - s.phases.Decode - s.phases.Merge
	return s, nil
}

// acquireLock takes the store's exclusive writer flock (non-blocking).
func (s *Store) acquireLock() error {
	f, err := os.OpenFile(s.path("LOCK"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		return fmt.Errorf("store: %s is locked by another process (two writers would corrupt acknowledged history): %w", s.dir, err)
	}
	s.lock = f
	return nil
}

// releaseLock drops the writer flock, if held.
func (s *Store) releaseLock() {
	if s.lock != nil {
		_ = syscall.Flock(int(s.lock.Fd()), syscall.LOCK_UN)
		s.lock.Close()
		s.lock = nil
	}
}

// Close releases the writer lock, after any commit in flight. The store's
// durable state needs no shutdown — every acknowledged epoch is already
// fsynced.
func (s *Store) Close() error {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.releaseLock()
	return nil
}

// Writable reports whether the store was opened with a configuration and
// accepts AppendEpoch.
func (s *Store) Writable() bool { return s.writable }

// Epoch returns the last acknowledged epoch (0 for an empty store).
func (s *Store) Epoch() int { s.mu.Lock(); defer s.mu.Unlock(); return s.epoch }

// Assignments returns the per-epoch sketch count (0 for an empty read-only
// store).
func (s *Store) Assignments() int { s.mu.Lock(); defer s.mu.Unlock(); return s.assignments }

// Retain returns the configured retention ring size.
func (s *Store) Retain() int { return s.retain }

// CompactedThrough returns the highest epoch no longer individually
// retained: epochs at or below it live on only in the cumulative segment.
func (s *Store) CompactedThrough() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch - len(s.retained)
}

// DiskBytes returns the total size of the referenced segment files.
func (s *Store) DiskBytes() int64 { s.mu.Lock(); defer s.mu.Unlock(); return s.bytes }

// Retained returns the individually retained epochs, ascending. The
// records (and their sketches) are immutable; the slice is a copy.
func (s *Store) Retained() []EpochRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]EpochRecord, len(s.retained))
	for i, rec := range s.retained {
		out[i] = rec.EpochRecord
	}
	return out
}

// Cumulative returns the exact merged sketches of all acknowledged epochs
// (nil for an empty store) — bit-identical to a single pass over every
// offer ever acknowledged, by the merge lemma.
func (s *Store) Cumulative() []*sketch.BottomK { s.mu.Lock(); defer s.mu.Unlock(); return s.cum }

// CumulativeSegment returns the cumulative segment file's bytes — which
// are EncodeSegment of Cumulative() — when it covers the last epoch and is
// in the version the writer now picks (sketch.SegmentCanonical), else nil.
// Callers must not modify them.
func (s *Store) CumulativeSegment() []byte { s.mu.Lock(); defer s.mu.Unlock(); return s.cumSeg }

// mergeSets merges the non-nil sketch sets (disjoint key sets) through a
// core.Merged, as a serving state merges: each assignment on its own
// worker, every merged sketch checked against the configuration, and two
// sets keeping one key an error naming it.
func (s *Store) mergeSets(sets ...[]*sketch.BottomK) ([]*sketch.BottomK, error) {
	m := core.NewMerged(s.sample, slices.DeleteFunc(sets, func(set []*sketch.BottomK) bool { return set == nil }))
	if _, err := m.Ensure(nil); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return m.Sketches(), nil
}

// SampleConfig returns the sampling configuration of the stored sketches:
// the configured one, or on a read-only open the first segment's. ok is
// false for an empty store opened read-only.
func (s *Store) SampleConfig() (core.Config, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sample, s.sample != core.Config{}
}

// AppendEpoch is Commit merging the epoch onto Cumulative() itself.
func (s *Store) AppendEpoch(sketches []*sketch.BottomK) (int, error) {
	epoch, _, err := s.Commit(sketches, func() ([]*sketch.BottomK, error) { return s.mergeSets(s.Cumulative(), sketches) })
	return epoch, err
}

// Commit durably persists one frozen epoch's sketch set (one sketch per
// assignment, fingerprinted under the store's configuration) and returns
// its epoch number. merge returns the exact merge of Cumulative() and
// sketches; Commit calls it once, after encoding the epoch segment — the
// encoder hands the epoch's sketches their key orders, so a merge of
// ordered inputs derives the cumulative's — and while the segment is
// written. The Store's readers do not wait for the merge, which must not
// call Commit or Close. A merge error is returned as is, and nothing is acknowledged.
// On a nil error the epoch is acknowledged, and any crash afterwards
// recovers it bit-identically. A checkpoint commit (see the package
// documentation) also writes the merge as the cumulative segment and
// returns its bytes; a *CompactionError means the epoch is acknowledged
// (epoch != 0) but that segment was not written.
func (s *Store) Commit(sketches []*sketch.BottomK, merge func() ([]*sketch.BottomK, error)) (int, []byte, error) {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	s.mu.Lock()
	epoch, retained, prevC, broken := s.epoch+1, s.retained, s.cumRec, s.broken
	s.mu.Unlock()
	if !s.writable {
		return 0, nil, fmt.Errorf("store: opened read-only (no Sample configuration)")
	}
	if len(sketches) != s.assignments {
		return 0, nil, fmt.Errorf("store: %d sketches for %d assignments", len(sketches), s.assignments)
	}
	if broken {
		return 0, nil, fmt.Errorf("store: a renamed manifest may not be durable (directory fsync failed); reopen the store to recover before committing")
	}
	ep := &segFile{name: segmentName("epoch", epoch), sketches: append([]*sketch.BottomK(nil), sketches...)}
	if err := s.encode(ep); err != nil {
		return 0, nil, err
	}
	full := len(retained) >= s.retain
	var cf *segFile // the cumulative segment, on a checkpoint commit
	if full && epoch-prevC.n >= (s.retain+1)/2 {
		cf = &segFile{name: segmentName("cum", epoch)}
	}
	// Every fault point is drawn before any concurrent work, in file order.
	ep.write, ep.fsync = s.faults.Act(FaultSegmentWrite), s.faults.Act(FaultSegmentFsync)
	if cf != nil {
		cf.write, cf.fsync = s.faults.Act(FaultSegmentWrite), s.faults.Act(FaultSegmentFsync)
	}
	mwrite, mfsync := s.faults.Act(FaultManifestAppend), s.faults.Act(FaultManifestFsync)

	ring := append(retained[:len(retained):len(retained)], storedEpoch{
		EpochRecord: EpochRecord{Epoch: epoch, Sketches: ep.sketches}, size: len(ep.data), crc: ep.crc})
	cut := 0 // ring[:cut] expires: past retain, and covered by the C record
	if full {
		cut = len(ring) - s.retain
	}
	c, manifest := prevC, &tempFile{name: manifestName, write: mwrite, fsync: mfsync}
	defer manifest.discard()
	// While the caller merges, the epoch segment is written beside the new
	// manifest's temp file, which off a checkpoint nothing merged changes.
	written := make(chan error, 1)
	go func() {
		var text []byte
		if cf == nil {
			text = s.manifestText(c, ring[cut:])
		}
		written <- s.writeBeside(ep, manifest, text)
	}()
	cum, err := merge()
	if err == nil && len(cum) != s.assignments {
		err = fmt.Errorf("store: merge returned %d sketches for %d assignments", len(cum), s.assignments)
	}
	if err == nil && cf != nil { // while the epoch segment may still be written
		cf.sketches = cum
		cf.err = s.encode(cf)
	}
	werr := <-written
	if err != nil {
		if ep.err == nil {
			os.Remove(s.path(ep.name)) // best-effort: nothing references it
		}
		return 0, nil, err
	}
	if werr != nil {
		return 0, nil, werr
	}
	if cf != nil {
		if cf.err == nil {
			c = manifestRecord{kind: 'C', n: epoch, file: cf.name, size: len(cf.data), crc: cf.crc, fps: fingerprints(cum)}
			if err := s.writeBeside(cf, manifest, s.manifestText(c, ring[cut:])); cf.err == nil && err != nil {
				return 0, nil, err
			}
		}
		if cf.err != nil {
			// The ring keeps the epochs the old C record does not cover.
			c, cut = prevC, 0
			if err := s.writeTemp(manifest, s.manifestText(c, ring)); err != nil {
				return 0, nil, err
			}
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	syncStart := time.Now()
	if err := s.syncDir(); err != nil {
		return 0, nil, err
	}
	s.recordSegments(time.Since(syncStart), ep, cf)
	if err := s.installManifest(manifest); err != nil {
		return 0, nil, err
	}
	// Acknowledged. Deleting what is no longer referenced is best-effort: a
	// leftover is collected on the next writable open.
	for _, rec := range ring[:cut] {
		s.removeSegment(segmentName("epoch", rec.Epoch))
	}
	var cumSeg []byte
	if c.n == epoch { // a checkpoint: the old one is referenced no more
		cumSeg = cf.data
		if prevC.n > 0 {
			s.removeSegment(prevC.file)
		}
	}
	s.epoch, s.cumRec, s.cum, s.cumSeg, s.retained = epoch, c, cum, cumSeg, ring[cut:]
	s.bytes += int64(len(ep.data) + len(cumSeg))
	if cf != nil && cf.err != nil {
		return epoch, nil, &CompactionError{Err: cf.err}
	}
	if cumSeg != nil {
		s.log.Debug("wrote cumulative segment", "through", epoch, "disk_bytes", s.bytes)
	}
	return epoch, cumSeg, nil
}

// SegmentKeyRatio returns dictionary keys ÷ entries of the last segment
// written (0 before one holding entries): 1/|W| at full overlap, 1 at none.
func (s *Store) SegmentKeyRatio() float64 { s.mu.Lock(); defer s.mu.Unlock(); return s.keyRatio }

// fingerprints lists the per-assignment configuration fingerprints.
func fingerprints(sketches []*sketch.BottomK) []uint64 {
	fps := make([]uint64, len(sketches))
	for i, sk := range sketches {
		fps[i] = sk.Fingerprint()
	}
	return fps
}

// segFile is one segment file a commit writes: its name and sketches, the
// fault outcomes drawn for it, its encoding, and once written the time the
// write took and its error.
type segFile struct {
	name         string
	sketches     []*sketch.BottomK
	write, fsync faults.Outcome
	data         []byte
	crc          uint32
	took         time.Duration
	err          error
}

// encode encodes f's sketches as its segment bytes.
func (s *Store) encode(f *segFile) error {
	data, crc, err := sketch.MarshalSegment(s.sample.WireMetas(s.assignments), f.sketches)
	if err != nil {
		return fmt.Errorf("store: encoding %s: %w", f.name, err)
	}
	f.data, f.crc = data, crc
	return nil
}

// writeSegment writes an encoded segment under its final name; the caller
// fsyncs the directory. It only reads the Store.
func (s *Store) writeSegment(f *segFile) error {
	start := time.Now()
	defer func() { f.took = time.Since(start) }()
	data := f.data
	if f.write.Torn {
		// A torn write that lies about success: the durable file holds
		// half the bytes the manifest will acknowledge.
		data = faults.Tear(data)
	}
	tmp := &tempFile{name: f.name, write: f.write, fsync: f.fsync}
	defer tmp.discard()
	if err := s.writeTemp(tmp, data); err != nil {
		return err
	}
	return s.rename(tmp)
}

// writeBeside writes the encoded segment f under its final name (its
// error in f.err) and, unless text is nil, text to m's temp file,
// concurrently. It returns f's error, else m's. It only reads the Store.
func (s *Store) writeBeside(f *segFile, m *tempFile, text []byte) error {
	var merr error
	shard.ParallelDo(1+min(len(text), 1), func(i int) {
		if i == 0 {
			f.err = s.writeSegment(f)
		} else {
			merr = s.writeTemp(m, text)
		}
	})
	return cmp.Or(f.err, merr)
}

// recordSegments records the written segments' durations (each file's
// write, fsync and rename, plus the directory fsync that made them
// durable, dirSync) and the key ratio of the last one written.
func (s *Store) recordSegments(dirSync time.Duration, files ...*segFile) {
	for _, f := range files {
		if f == nil || f.err != nil {
			continue
		}
		s.segWriteHist.Record(f.took + dirSync)
		entries := 0
		for _, sk := range f.sketches {
			entries += sk.Size()
		}
		if keys, ok := sketch.SegmentKeys(f.data); ok && entries > 0 {
			s.keyRatio = float64(keys) / float64(entries)
		}
	}
}

// installManifest is every commit's acknowledgement point: it renames the
// new manifest's fsynced temp file over MANIFEST and fsyncs the directory.
// A failure before the rename leaves the old manifest in force; a failed
// directory fsync after it breaks the store. Caller holds s.mu.
func (s *Store) installManifest(m *tempFile) error {
	start := time.Now()
	if err := s.rename(m); err != nil {
		return err
	}
	if err := s.syncDir(); err != nil {
		s.broken = true
		return err
	}
	s.manifestFsyncHist.Record(m.took + time.Since(start))
	return nil
}

// manifestText renders a manifest: the header, the C record c (none when
// c.n is 0) and the E records of ring, whose sizes and checksums are the
// ones recorded at commit or recovery — no segment is re-read, so a rotted
// file cannot launder its own trailer into a new manifest.
func (s *Store) manifestText(c manifestRecord, ring []storedEpoch) []byte {
	var mb strings.Builder
	fmt.Fprintf(&mb, "%s%d\n", manifestHeaderPrefix, s.assignments)
	if c.n > 0 {
		mb.WriteString(manifestLine('C', c.n, c.file, c.size, c.crc, c.fps))
	}
	for _, rec := range ring {
		mb.WriteString(manifestLine('E', rec.Epoch, segmentName("epoch", rec.Epoch), rec.size, rec.crc, fingerprints(rec.Sketches)))
	}
	return []byte(mb.String())
}

// removeSegment deletes a segment file, adjusting the byte accounting.
func (s *Store) removeSegment(name string) {
	if st, err := os.Stat(s.path(name)); err == nil {
		if os.Remove(s.path(name)) == nil {
			s.bytes -= st.Size()
		}
	}
}

// tempFile is the fsynced temp file a durable file is written to before
// its rename: the final name, the fault outcomes drawn for it, and once
// written its path and the time it took.
type tempFile struct {
	name         string
	write, fsync faults.Outcome
	path         string
	took         time.Duration
}

// discard removes a temp file that was never renamed into place.
func (t *tempFile) discard() {
	if t.path != "" {
		os.Remove(t.path)
		t.path = ""
	}
}

// writeTemp writes data to a fresh temp file beside t's final name (in
// place of any it wrote before) and fsyncs it; the caller renames it and
// fsyncs the directory. A crash mid-call leaves at worst a *.tmp orphan.
// It only reads the Store.
func (s *Store) writeTemp(t *tempFile, data []byte) error {
	t.discard()
	if t.write.Err != nil {
		return fmt.Errorf("store: writing %s: %w", t.name, t.write.Err)
	}
	start := time.Now()
	f, err := os.CreateTemp(s.dir, t.name+".tmp-")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	t.path = f.Name()
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("store: writing %s: %w", t.name, err)
	}
	if err := cmp.Or(t.fsync.Err, f.Sync()); err != nil {
		f.Close()
		return fmt.Errorf("store: syncing %s: %w", t.name, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: closing %s: %w", t.name, err)
	}
	t.took = time.Since(start)
	return nil
}

// rename moves t's temp file to its final name; the caller fsyncs the
// directory.
func (s *Store) rename(t *tempFile) error {
	if err := os.Rename(t.path, s.path(t.name)); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	t.path = ""
	return nil
}

// syncDir fsyncs the store directory, making renames durable.
func (s *Store) syncDir() error {
	d, err := os.Open(s.dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: syncing directory: %w", err)
	}
	return nil
}

func (s *Store) path(name string) string { return filepath.Join(s.dir, name) }

func segmentName(kind string, n int) string { return fmt.Sprintf("%s-%06d.seg", kind, n) }

// manifestLine formats one manifest record, closed by the CRC-32C of the
// preceding bytes of the line.
func manifestLine(kind byte, n int, file string, size int, crc uint32, fps []uint64) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%c %d %s %d %08x fps=", kind, n, file, size, crc)
	for i, fp := range fps {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%016x", fp)
	}
	body := sb.String()
	return fmt.Sprintf("%s %08x\n", body, crc32.Checksum([]byte(body), castagnoli))
}

// manifestRecord is one parsed manifest line.
type manifestRecord struct {
	kind byte // 'E' or 'C'
	n    int  // epoch ('E') or compacted-through epoch ('C')
	file string
	size int
	crc  uint32
	fps  []uint64
}

// parseManifestLine inverts manifestLine, verifying the line checksum.
func parseManifestLine(line string) (manifestRecord, error) {
	var rec manifestRecord
	fields := strings.Fields(line)
	if len(fields) != 7 {
		return rec, fmt.Errorf("want 7 fields, have %d", len(fields))
	}
	lineCRC, err := strconv.ParseUint(fields[6], 16, 32)
	if err != nil {
		return rec, fmt.Errorf("bad line checksum %q", fields[6])
	}
	body := strings.TrimRight(line[:strings.LastIndex(line, fields[6])], " ")
	if crc32.Checksum([]byte(body), castagnoli) != uint32(lineCRC) {
		return rec, fmt.Errorf("line checksum mismatch")
	}
	prefix, ok := map[string]string{"E": "epoch", "C": "cum"}[fields[0]]
	if !ok {
		return rec, fmt.Errorf("unknown record kind %q", fields[0])
	}
	rec.kind = fields[0][0]
	if rec.n, err = strconv.Atoi(fields[1]); err != nil || rec.n < 1 {
		return rec, fmt.Errorf("bad epoch %q", fields[1])
	}
	// Every build names a record's segment after its kind and epoch; any
	// other name could alias another record's file.
	if rec.file = fields[2]; rec.file != segmentName(prefix, rec.n) {
		return rec, fmt.Errorf("segment name %q, want %q", rec.file, segmentName(prefix, rec.n))
	}
	if rec.size, err = strconv.Atoi(fields[3]); err != nil || rec.size < 0 {
		return rec, fmt.Errorf("bad size %q", fields[3])
	}
	crc, err := strconv.ParseUint(fields[4], 16, 32)
	if err != nil {
		return rec, fmt.Errorf("bad segment checksum %q", fields[4])
	}
	rec.crc = uint32(crc)
	fpsField, ok := strings.CutPrefix(fields[5], "fps=")
	if !ok {
		return rec, fmt.Errorf("missing fps field")
	}
	for _, part := range strings.Split(fpsField, ",") {
		fp, err := strconv.ParseUint(part, 16, 64)
		if err != nil {
			return rec, fmt.Errorf("bad fingerprint %q", part)
		}
		rec.fps = append(rec.fps, fp)
	}
	return rec, nil
}

// recover replays the manifest and loads every referenced segment. Caller
// is Open; no lock needed yet.
func (s *Store) recover() error {
	mpath := s.path(manifestName)
	data, err := os.ReadFile(mpath)
	if errors.Is(err, os.ErrNotExist) {
		if !s.writable {
			return fmt.Errorf("store: %s is not a store (no %s)", s.dir, manifestName)
		}
		// A directory holding segment files but no manifest is NOT a fresh
		// store: it is a damaged one (or a mistyped -data-dir aimed at the
		// wrong place). Initializing here would garbage-collect every
		// segment — the durability layer deleting the data it protects.
		if segs, _ := filepath.Glob(s.path("*.seg")); len(segs) > 0 {
			return &CorruptError{Path: mpath, Detail: fmt.Sprintf(
				"manifest missing but %d segment file(s) present (e.g. %s); refusing to initialize over them — restore the manifest or point -data-dir elsewhere",
				len(segs), filepath.Base(segs[0]))}
		}
		// Fresh store: write the header atomically, so a torn header can
		// never be observed.
		m := &tempFile{name: manifestName}
		defer m.discard()
		if err := s.writeTemp(m, s.manifestText(manifestRecord{}, nil)); err != nil {
			return err
		}
		if err := s.rename(m); err != nil {
			return err
		}
		return s.syncDir()
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}

	// Every commit replaces the manifest whole, so an unterminated line is
	// damage, like a line that fails its checksum.
	content, ok := strings.CutSuffix(string(data), "\n")
	if !ok {
		return &CorruptError{Path: mpath, Detail: "manifest does not end in a newline"}
	}
	lines := strings.Split(content, "\n")
	assignments, err := parseHeader(lines[0])
	if err != nil {
		return &CorruptError{Path: mpath, Detail: err.Error()}
	}
	if s.writable && assignments != s.assignments {
		return &MismatchError{Detail: fmt.Sprintf("store holds %d assignments, configured for %d", assignments, s.assignments)}
	}
	s.assignments = assignments

	records := make([]manifestRecord, 0, len(lines)-1)
	for i, line := range lines[1:] {
		rec, err := parseManifestLine(line)
		if err == nil && len(rec.fps) != assignments {
			err = fmt.Errorf("%d fingerprints for %d assignments", len(rec.fps), assignments)
		}
		if err != nil {
			return &CorruptError{Path: mpath, Detail: fmt.Sprintf("record %d: %v", i+1, err), Err: err}
		}
		records = append(records, rec)
	}
	// Read, check and decode each segment in parallel (serially at
	// GOMAXPROCS=1); report in manifest order. The pass's time is split
	// between the open and decode phases in proportion to the time its
	// reads and decodes took.
	loaded := make([][]*sketch.BottomK, len(records))
	cfgs := make([]core.Config, len(records))
	raw := make([][]byte, len(records))
	errs := make([]error, len(records))
	reads, decodes := make([]time.Duration, len(records)), make([]time.Duration, len(records))
	passStart := time.Now()
	shard.ParallelDo(len(records), func(i int) {
		start := time.Now()
		raw[i], errs[i] = s.readSegment(records[i])
		reads[i] = time.Since(start)
		if errs[i] == nil {
			loaded[i], cfgs[i], errs[i] = s.decodeSegment(records[i], raw[i])
			decodes[i] = time.Since(start) - reads[i]
		}
	})
	var read, decode time.Duration
	for i := range records {
		read, decode = read+reads[i], decode+decodes[i]
	}
	if read+decode > 0 {
		s.phases.Decode = time.Duration(float64(time.Since(passStart)) * float64(decode) / float64(read+decode))
	}
	base, baseData := []*sketch.BottomK(nil), []byte(nil)
	for i, rec := range records {
		if errs[i] != nil {
			return errs[i]
		}
		switch rec.kind {
		case 'C':
			if rec.n < s.epoch {
				return &CorruptError{Path: mpath, Detail: fmt.Sprintf("compaction through %d behind epoch %d", rec.n, s.epoch)}
			}
			s.cumRec, s.epoch, base, baseData = rec, rec.n, loaded[i], nil
			if sketch.SegmentCanonical(raw[i], cfgs[i].WireMetas(assignments)) {
				baseData = raw[i] // what the writer would now write: servable as the export
			}
			s.retained = nil
		case 'E':
			// The ring is consecutive; it may start inside the cumulative
			// segment's epochs.
			if n := len(s.retained); n > 0 && rec.n != s.retained[n-1].Epoch+1 || n == 0 && rec.n > s.epoch+1 {
				return &CorruptError{Path: mpath, Detail: fmt.Sprintf("epoch %d breaks the retained ring (acknowledged history has a gap)", rec.n)}
			}
			s.epoch = max(s.epoch, rec.n)
			s.retained = append(s.retained, storedEpoch{
				EpochRecord: EpochRecord{Epoch: rec.n, Sketches: loaded[i]},
				size:        rec.size,
				crc:         rec.crc,
			})
		}
	}
	if n := len(s.retained); n > 0 && s.retained[n-1].Epoch < s.cumRec.n {
		return &CorruptError{Path: mpath, Detail: fmt.Sprintf("retained epochs end at %d, before the cumulative segment's %d", s.retained[n-1].Epoch, s.cumRec.n)}
	}
	if !s.writable && len(records) > 0 {
		s.sample = cfgs[0]
	}
	s.bytes = int64(s.cumRec.size)
	for _, rec := range s.retained {
		s.bytes += int64(rec.size)
	}

	// A cumulative segment covering the last epoch is the cumulative;
	// otherwise it merges with the epochs above it, as they merged live.
	if s.epoch > 0 && s.cumRec.n == s.epoch {
		s.cum, s.cumSeg = base, baseData
	} else if s.epoch > 0 {
		mergeStart := time.Now()
		sets := [][]*sketch.BottomK{base}
		for _, rec := range s.retained[len(s.retained)-(s.epoch-s.cumRec.n):] {
			sets = append(sets, rec.Sketches)
		}
		if s.cum, err = s.mergeSets(sets...); err != nil {
			return &CorruptError{Path: mpath, Detail: "recorded segments do not merge", Err: err}
		}
		s.phases.Merge = time.Since(mergeStart)
	}
	return nil
}

// parseHeader validates the manifest header and extracts the assignment
// count.
func parseHeader(line string) (int, error) {
	rest, ok := strings.CutPrefix(line, manifestHeaderPrefix)
	if !ok {
		return 0, fmt.Errorf("bad header %q", line)
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 1 {
		return 0, fmt.Errorf("bad assignment count %q", rest)
	}
	return n, nil
}

// readSegment reads one referenced segment file and checks its size and
// checksum against the manifest record. Every failure is
// acknowledged-state corruption. It only reads the Store, so recovery runs
// it concurrently.
func (s *Store) readSegment(rec manifestRecord) ([]byte, error) {
	path := s.path(rec.file)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, &CorruptError{Path: path, Detail: "acknowledged segment unreadable", Err: err}
	}
	if len(data) != rec.size {
		return nil, &CorruptError{Path: path, Detail: fmt.Sprintf("%d bytes, manifest records %d", len(data), rec.size)}
	}
	if crc, ok := sketch.SegmentCRC(data); !ok || crc != rec.crc {
		return nil, &CorruptError{Path: path, Detail: fmt.Sprintf("segment checksum %08x, manifest records %08x", crc, rec.crc)}
	}
	return data, nil
}

// decodeSegment decodes and validates the bytes readSegment returned for
// rec — one sketch per assignment, in order, carrying the fingerprints rec
// records and, on a writable store, the configuration's — returning their
// sketches and the configuration they were built under: a typed error,
// never a partial result. It only reads the Store, so recovery runs it
// concurrently.
func (s *Store) decodeSegment(rec manifestRecord, data []byte) ([]*sketch.BottomK, core.Config, error) {
	path := s.path(rec.file)
	decoded, err := sketch.DecodeSegment(data)
	if err != nil {
		return nil, core.Config{}, &CorruptError{Path: path, Detail: "segment failed validation", Err: err}
	}
	sketches, err := sketch.CheckSet(decoded, rec.fps)
	if err != nil {
		return nil, core.Config{}, &CorruptError{Path: path, Detail: "segment disagrees with its manifest record", Err: err}
	}
	if s.writable {
		for b, d := range decoded {
			if want := s.sample.Assigner().Fingerprint(b, s.sample.K); d.Fingerprint() != want {
				return nil, core.Config{}, &MismatchError{Detail: fmt.Sprintf(
					"%s sketch %d was built under %v/%v/seed=%d/k=%d (fingerprint %016x), store opened for %v/%v/seed=%d/k=%d (fingerprint %016x)",
					rec.file, b, d.Meta.Family, d.Meta.Mode, d.Meta.Seed, d.BottomK.K(),
					d.Fingerprint(), s.sample.Family, s.sample.Mode, s.sample.Seed, s.sample.K, want)}
			}
		}
	}
	m := decoded[0].Meta
	return sketches, core.Config{Family: m.Family, Mode: m.Mode, Seed: m.Seed, K: sketches[0].K()}, nil
}

// collectGarbage removes *.tmp orphans and segment files no manifest
// record references (crash leftovers from between a segment rename and its
// manifest commit, or from before the unlinks that follow one). Writable opens
// only; caller is Open.
func (s *Store) collectGarbage() {
	referenced := map[string]bool{}
	if s.cumRec.n > 0 {
		referenced[s.cumRec.file] = true
	}
	for _, rec := range s.retained {
		referenced[segmentName("epoch", rec.Epoch)] = true
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if name == manifestName || referenced[name] {
			continue
		}
		if strings.Contains(name, ".tmp-") || strings.HasSuffix(name, ".seg") {
			os.Remove(s.path(name))
		}
	}
}
