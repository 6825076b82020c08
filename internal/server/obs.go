package server

import (
	"net/http"
	"strconv"
	"time"

	"coordsample/internal/obs"
	"coordsample/internal/sketch"
)

// serverMetrics is the serving layer's histogram set. The histograms are
// created through the server's registry in initObs, so they are always
// non-nil and the recording sites stay branch-free.
type serverMetrics struct {
	offer          *obs.Histogram // POST /offer request latency
	ingestStream   *obs.Histogram // POST /ingest whole-stream latency
	queryAW        *obs.Histogram // GET /query latency, AW estimator family
	queryDiscarded *obs.Histogram // GET /query latency, discarded-samples family
	freezeDetach   *obs.Histogram // freeze: epoch detach under the ingest write lock
	freezeMerge    *obs.Histogram // freeze: lane freeze, epoch segment encode, cumulative merge
	freezePersist  *obs.Histogram // freeze: the merge's return to the durable manifest (the ack point)
	freezePublish  *obs.Histogram // freeze: ring rebuild, snapshot build and swap

	queryStages map[string]*obs.Histogram // GET /query cold-path spans, by span name
}

// initObs wires the server's observability: the metrics registry (shared
// with the cluster router when cws-serve runs both), the trace ring behind
// GET /debug/traces, and the component-tagged structured logger. Nil
// config fields get private defaults, so embedders pay nothing for the
// layer they did not ask for.
//
// The registry exposes the process series (RegisterProcess), the counters
// the server keeps (as function-backed series — no double bookkeeping), the
// request/freeze histograms, the store's durability histograms when a store
// is attached,
// and one hits/fires counter pair per configured fault point — the whole
// shared fault Set, so injected cluster and store faults are scrapable
// from the serving process's /metrics.
func (s *Server) initObs(cfg Config) {
	s.reg = cfg.Metrics
	if s.reg == nil {
		s.reg = obs.NewRegistry()
	}
	s.traces = cfg.Traces
	if s.traces == nil {
		s.traces = obs.NewTraceRing(64)
	}
	s.log = obs.Component(cfg.Log, "server")

	r := s.reg
	m := &s.om
	m.offer = r.NewHistogram("cws_offer_latency_seconds", "POST /offer request latency.")
	m.ingestStream = r.NewHistogram("cws_ingest_stream_seconds", "POST /ingest whole-stream latency.")
	const queryHelp = "GET /query latency by estimator family."
	m.queryAW = r.NewHistogramL("cws_query_latency_seconds", queryHelp, obs.Label("est", "aw"))
	m.queryDiscarded = r.NewHistogramL("cws_query_latency_seconds", queryHelp, obs.Label("est", "discarded"))
	m.queryStages = make(map[string]*obs.Histogram)
	for _, stage := range []string{"range-merge", "summarize"} {
		m.queryStages[stage] = r.NewHistogramL(obs.QueryStageMetric, obs.QueryStageHelp, obs.Label("stage", stage))
	}
	const freezeHelp = "Freeze phase latency, phases back to back: detach (ingest write lock held), merge (lane freeze, epoch segment encode, cumulative merge), persist (from the merge's return to the durable manifest), publish (ring rebuild, snapshot build and swap)."
	m.freezeDetach = r.NewHistogramL("cws_freeze_phase_seconds", freezeHelp, obs.Label("phase", "detach"))
	m.freezeMerge = r.NewHistogramL("cws_freeze_phase_seconds", freezeHelp, obs.Label("phase", "merge"))
	m.freezePersist = r.NewHistogramL("cws_freeze_phase_seconds", freezeHelp, obs.Label("phase", "persist"))
	m.freezePublish = r.NewHistogramL("cws_freeze_phase_seconds", freezeHelp, obs.Label("phase", "publish"))

	r.RegisterProcess(sketch.KeyOrderSorts)
	r.Counter("cws_range_queries_total", "Queries answered over a retained epoch window (?epochs=lo..hi).", s.rangeQueries.Load)
	r.CounterL("cws_merged_assignments_total", "Assignments merged on first use by a window or cluster state.", obs.Label("site", "window"), s.mergedAssignments.Load)
	r.CounterL("cws_merge_conflicts_total", "Window or cluster merges refused: two inputs held one key, or an input's configuration fingerprint did not match.", obs.Label("site", "window"), s.mergeConflicts.Load)
	r.Counter("cws_freezes_total", "Successful epoch freezes.", s.freezes.Load)
	r.Counter("cws_freeze_errors_total", "Failed freezes (contract violations and persist failures).", s.freezeErrors.Load)
	r.Counter("cws_segment_exports_total", "GET /sketches exports (peer bulk fetches and downloads).", s.segmentExports.Load)
	r.Counter("cws_segment_export_encodes_total", "GET /sketches responses that encoded their segment (a window, or a cumulative no freeze or recovery had the bytes of).", s.exportEncodes.Load)
	r.Counter("cws_sheds_total", "Ingest requests shed with 429 under the inflight bound.", s.sheds.Load)
	r.Counter("cws_store_persist_errors_total", "Persist failures (the freeze was not acknowledged).", s.persistErrors.Load)
	r.Counter("cws_store_compaction_errors_total", "Checkpoint (cumulative segment) writes that failed after an acknowledged persist.", s.compactionErrors.Load)

	// Sampler signals, per assignment: how much of the stream the shared
	// admission threshold prunes, where that threshold stands, and how full
	// the open epoch's sample is. The counters are cumulative across epochs;
	// the gauges describe the epoch being ingested, as of its lanes' last
	// flushes.
	for b := range s.ingestStats {
		label := obs.Label("assignment", strconv.Itoa(b))
		r.CounterL("cws_ingest_offered_total", "Positive-weight offers handed to an ingest lane.", label, s.ingestStats[b].offered.Load)
		r.CounterL("cws_ingest_admitted_total", "Offers a lane's bottom-k builder took as candidates; the rest were pruned by hash against the shared threshold.", label, s.ingestStats[b].admitted.Load)
		r.GaugeL("cws_ingest_admission_threshold", "Shared admission threshold of the open epoch: the smallest bound (k-th rank as of its last compaction) any lane's builder has reached (+Inf until a lane fills).", label, func() float64 {
			s.ingestMu.RLock()
			defer s.ingestMu.RUnlock()
			return s.ingest.ms.AdmissionThreshold(b)
		})
		r.GaugeL("cws_ingest_sample_fill", "Entries the open epoch's sample would hold if frozen now, as a fraction of k.", label, func() float64 {
			s.ingestMu.RLock()
			defer s.ingestMu.RUnlock()
			// Candidates, not entries: none is dropped before a lane holds k,
			// so below k the sum is the sample's size, and from k it is full.
			var n int64
			for _, slot := range s.ingest.lanes {
				n += slot.retained[b].Load()
			}
			return min(1, float64(n)/float64(cfg.Sample.K))
		})
	}

	r.Gauge("cws_epoch", "Epoch of the serving snapshot.", func() float64 {
		return float64(s.snap.Load().epoch)
	})
	r.Gauge("cws_retained_epochs", "Individually retained epochs (the queryable time windows).", func() float64 {
		return float64(len(s.snap.Load().retained))
	})
	r.Gauge("cws_serving_entries", "Sample entries across the serving snapshot's sketches.", func() float64 {
		n := 0
		for _, sk := range s.snap.Load().cum.Sketches() {
			n += sk.Size()
		}
		return float64(n)
	})
	r.Gauge("cws_inflight_ingest", "Ingest requests currently in flight.", func() float64 {
		return float64(s.inflight.Load())
	})
	r.Gauge("cws_recovered_epochs", "Epochs recovered from the store at startup.", func() float64 {
		return float64(s.recoveredEpochs.Load())
	})
	r.Gauge("cws_uptime_seconds", "Process uptime.", func() float64 {
		return time.Since(s.start).Seconds()
	})

	if s.store != nil {
		sm := s.store.Metrics()
		r.RegisterHistogram("cws_store_segment_write_seconds",
			"Durable segment write latency (write, fsync, rename, dir sync).", "", sm.SegmentWrite)
		r.RegisterHistogram("cws_store_manifest_fsync_seconds",
			"Manifest fsync latency — the epoch acknowledgement point.", "", sm.ManifestFsync)
		r.Gauge("cws_store_bytes", "Bytes of referenced segment files on disk.", func() float64 {
			return float64(s.store.DiskBytes())
		})
		r.Gauge("cws_store_segment_key_ratio", "Distinct dictionary keys over entries of the last segment the store wrote: the union/sum size of its samples (0 before the first).", s.store.SegmentKeyRatio)
	}

	if cfg.Faults != nil {
		for _, pt := range cfg.Faults.Points() {
			pt := pt
			r.CounterL("cws_fault_hits_total",
				"Times an instrumented fault site was reached, per configured point.",
				obs.Label("point", pt), func() int64 { return int64(cfg.Faults.Hits(pt)) })
			r.CounterL("cws_fault_fires_total",
				"Times a configured fault point actually injected its action.",
				obs.Label("point", pt), func() int64 { return int64(cfg.Faults.Fires(pt)) })
		}
	}
}

// handleTraces serves the bounded ring of recent request traces, newest
// first.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"traces": s.traces.Reports()})
}
