package server

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"coordsample/internal/core"
	"coordsample/internal/shard"
	"coordsample/internal/sketch"
	"coordsample/internal/store"
)

// --- freeze ---

func (s *Server) handleFreeze(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	snap, err := s.freeze()
	if errors.Is(err, errClosed) {
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	var pe *persistError
	if errors.As(err, &pe) {
		s.freezeErrors.Add(1)
		s.log.Warn("freeze failed: epoch not acknowledged", "err", err)
		// The epoch could not be made durable; nothing was acknowledged and
		// the serving snapshot is unchanged. 500: the data was fine, the
		// disk was not.
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if err != nil {
		s.freezeErrors.Add(1)
		s.log.Warn("freeze failed: contract violation", "err", err)
		// The pre-aggregation contract was violated by the ingested data;
		// 409 Conflict distinguishes it from a malformed request.
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	s.freezes.Add(1)
	entries := make([]int, s.cfg.Assignments)
	for b := range entries {
		entries[b] = snap.cum.Sketch(b).Size()
	}
	writeJSON(w, http.StatusOK, map[string]any{"epoch": snap.epoch, "assignments": s.cfg.Assignments, "entries": entries})
}

// persistError wraps a store failure during freeze: the epoch was never
// acknowledged. handleFreeze maps it to 500 (the data was valid; the disk
// failed) instead of the contract-violation 409.
type persistError struct{ err error }

func (e *persistError) Error() string {
	return fmt.Sprintf("persisting epoch: %v (the freeze was not acknowledged; the epoch's data is discarded and the serving snapshot is unchanged)", e.err)
}
func (e *persistError) Unwrap() error { return e.err }

// freeze advances the epoch: arm fresh sketchers, terminally freeze the
// detached ones, merge the epoch's sketches with the cumulative ones into
// the new whole-stream state (exact, by the merge lemma — epochs are
// disjoint key sets under the pre-aggregation contract) while the store
// writes the epoch (when durable; the commit is the acknowledgement point),
// and publish the new snapshot with the refreshed retention ring. The
// phases it records do not overlap: detach; merge, from the lane freeze
// through the store's epoch encode to the merge's return; persist, from
// there to the durable manifest; publish. On error (a duplicate
// key two lanes, or the epoch and the cumulative, both retained — a
// contract violation in the ingested data — or a persist failure) the
// serving snapshot is left unchanged, the poisoned epoch's data is
// discarded, and ingestion continues in a fresh epoch.
func (s *Server) freeze() (*snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return nil, errClosed
	}
	// Detach the epoch under the ingest write lock — held only for the
	// swap — and arm the next epoch before any freeze work runs, so
	// producers stream into the new epoch while the old one is frozen,
	// merged, and persisted off the ingest path. The old epoch's offers
	// are consumed on success and discarded on every failure path below,
	// so the fresh epoch starts clean either way — a failed freeze must
	// not leave dirty set, or Shutdown would later mint (and persist) a
	// phantom empty epoch.
	detachStart := time.Now()
	s.ingestMu.Lock()
	old := s.ingest
	s.ingest = newEpochIngest(s.cfg)
	s.dirty.Store(false)
	s.ingestMu.Unlock()
	s.om.freezeDetach.Record(time.Since(detachStart))
	if out := s.cfg.Faults.Act(FaultFreeze); out.Err != nil {
		// An injected freeze failure behaves like a persist failure: the
		// epoch was never acknowledged, the serving snapshot is unchanged.
		// (A latency-only point has already slept inside Act, widening the
		// detached-but-unpublished window the chaos harness kills into.)
		return nil, &persistError{err: out.Err}
	}
	prev := s.snap.Load()
	mergeStart := time.Now()
	epochSketches, err := freezeLanes(old.ms)
	var cum *core.Merged
	var mergeEnd time.Time
	merge := func() ([]*sketch.BottomK, error) {
		cum = core.NewMerged(s.cfg.Sample, [][]*sketch.BottomK{prev.cum.Sketches(), epochSketches})
		_, err = cum.Ensure(nil)
		mergeEnd = time.Now()
		if err != nil {
			return nil, err
		}
		return cum.Sketches(), nil
	}
	var segment []byte
	var perr error
	if err == nil && s.store == nil {
		merge()
	} else if err == nil {
		// The store encodes the epoch first, then writes it while merge runs.
		_, segment, perr = s.store.Commit(epochSketches, merge)
	}
	if err != nil {
		return nil, fmt.Errorf("freezing epoch: %v (each key may be offered at most once per assignment across the server's lifetime; the epoch's data is discarded and the serving snapshot is unchanged)", err)
	}
	var ce *store.CompactionError
	if perr != nil && !errors.As(perr, &ce) {
		s.persistErrors.Add(1)
		return nil, &persistError{err: perr}
	}
	if perr != nil {
		// The epoch itself is acknowledged; only its checkpoint was not
		// written (the next commit writes one).
		s.compactionErrors.Add(1)
	}
	s.om.freezeMerge.Record(mergeEnd.Sub(mergeStart))
	if s.store != nil {
		s.om.freezePersist.Record(time.Since(mergeEnd))
	}
	publishStart := time.Now()
	epoch := prev.epoch + 1
	s.epochNow.Store(int64(epoch))
	// A fresh ring slice every freeze: published snapshots hold the old one.
	retained := append(prev.retained[:len(prev.retained):len(prev.retained)], store.EpochRecord{Epoch: epoch, Sketches: epochSketches})
	if segment == nil && s.cfg.OwnsKey != nil {
		// A cluster member's router fetches the new cumulative right away.
		segment = s.exportSegment(cum.Sketches())
	}
	snap := newSnapshot(epoch, cum, retained[max(0, len(retained)-s.retain):], segment)
	s.snap.Store(snap)
	s.om.freezePublish.Record(time.Since(publishStart))
	s.log.Info("epoch frozen", "epoch", epoch, "retained", len(snap.retained))
	return snap, nil
}

// freezeLanes terminally freezes the epoch's sketchers, turning the sketch
// layer's panic at a key two of an assignment's lanes retained (a
// pre-aggregation violation within the epoch) into an error a server can
// survive.
func freezeLanes(ms *shard.MultiSketcher) (sketches []*sketch.BottomK, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	return ms.Sketches(), nil
}
