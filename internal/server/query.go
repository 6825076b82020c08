package server

import (
	"fmt"
	"net/http"
	"time"

	"coordsample/internal/cliquery"
	"coordsample/internal/core"
	"coordsample/internal/estimate"
	"coordsample/internal/obs"
	"coordsample/internal/store"
)

// WindowError is an epoch window a snapshot cannot serve, with the status
// /query and /sketches answer it with: 400 for a malformed window, one
// outside retention or past the current epoch; 409 when two of its epochs
// hold one key.
type WindowError struct {
	Code int
	error
}

func (e *WindowError) HTTPStatus() int { return e.Code }

// window serves one request's ?epochs=lo..hi (span, the window spelled
// "lo..hi" however it was asked): the (memoized) serving state
// of the window with the assignments bs — the ones the request reads —
// merged. The window's epochs hold disjoint key sets under the
// pre-aggregation contract, so an assignment's epoch sketches merge into its
// exact sketch of the window (the merge lemma that makes sharded ingestion
// exact, applied to time); a state is made unmerged, under the lock, and
// merges an assignment for the first request reading it — the range-merge
// span, there when this request merged any. A refusal is a *WindowError: 400
// for a window the snapshot cannot serve; 409 when two of its epochs hold
// one key, which the freezes' cumulative merges cannot see once the tighter
// cumulative threshold has pruned a copy. Nothing is kept of the refused
// assignment; the others, and every other window, keep answering.
func (s *Server) window(snap *snapshot, tr *obs.Trace, span string, lo, hi int, bs []int) (*core.Merged, *WindowError) {
	sets, err := store.Window(snap.retained, snap.epoch, lo, hi)
	if err != nil {
		return nil, &WindowError{http.StatusBadRequest, err}
	}
	snap.rangeMu.Lock()
	rs, ok := snap.ranges[span]
	if !ok {
		rs = core.NewMerged(s.cfg.Sample, sets)
		snap.ranges[span] = rs
	}
	snap.rangeMu.Unlock()
	start := time.Now()
	n, err := rs.Ensure(bs)
	s.mergedAssignments.Add(int64(n))
	if n > 0 || err != nil {
		tr.AddNote("range-merge", fmt.Sprintf("assignments=%d/%d", n, s.cfg.Assignments), start, time.Since(start))
	}
	if err != nil {
		s.mergeConflicts.Add(1)
		s.log.Warn("window merge refused: contract violation", "lo", lo, "hi", hi, "err", err)
		return nil, &WindowError{http.StatusConflict, fmt.Errorf("epochs %d..%d: %v (each key may be offered at most once per assignment across the server's lifetime)", lo, hi, err)}
	}
	return rs, nil
}

// --- queries ---

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	// Every query is traced into the bounded ring behind /debug/traces;
	// ?trace=1 additionally returns the per-stage breakdown in the
	// response. The span set is the query pipeline: parse → snapshot pin
	// [→ range-merge, only when this query merges an assignment of its
	// window] [→ summarize, only when it builds a cold AW-summary] →
	// estimate.
	started := time.Now()
	tr := obs.NewTrace(s.traces.NextID(), "query")
	// Whatever the outcome, the trace reaches /debug/traces.
	defer func() {
		rep := tr.Report()
		rep.RecordStages(s.om.queryStages)
		s.traces.Add(rep)
	}()
	// The parameter grammar and the answer are shared with the cluster
	// router (the ?est= estimator family name is folded into the memo keys
	// by cliquery.AnswerVia, so the snapshot caches never alias across
	// estimators).
	sp := tr.Start("parse")
	q := r.URL.Query()
	p, err := cliquery.ParseHTTPParams(q, s.cfg.Assignments)
	sp.End()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	tr.Op = "query agg=" + p.Agg + " est=" + p.Est.Name()
	sp = tr.Start("snapshot-pin")
	snap := s.snap.Load()
	sp.End()
	// Default: the cumulative snapshot (all epochs). ?epochs=lo..hi
	// answers over exactly that retained time window instead.
	state, resp := snap.cum, map[string]any{"epoch": snap.epoch}
	if p.Epochs != "" {
		var werr *WindowError
		if state, werr = s.window(snap, tr, p.Epochs, p.Lo, p.Hi, cliquery.Reads(p.Agg, p.B, p.R, s.cfg.Assignments)); werr != nil {
			writeError(w, werr.Code, "%v", werr)
			return
		}
		resp["epochs"] = p.Epochs
		s.rangeQueries.Add(1)
	}
	if err := p.Answer(tr, state.Summary(), state.SummaryFor, resp); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if p.Est.Name() == estimate.DiscardedEstimator.Name() {
		s.om.queryDiscarded.Record(time.Since(started))
	} else {
		s.om.queryAW.Record(time.Since(started))
	}
	if q.Get("trace") == "1" {
		resp["trace"] = tr.Report()
	}
	writeJSON(w, http.StatusOK, resp)
}
