package server

import (
	"testing"
	"time"

	"coordsample/internal/core"
	"coordsample/internal/obs"
	"coordsample/internal/rank"
	"coordsample/internal/store"
)

// BenchmarkFreeze times one freeze of a durable node shaped like the
// epoch-churn workload — |W| = 8, k = 1 024, 8 192 keys an epoch, a full
// ring of 8 — so every timed freeze freezes the lanes, encodes and writes
// the epoch segment while it merges the cumulative, and replaces the
// manifest: a checkpoint freeze (every ⌈8/2⌉-th) also writes the
// cumulative segment, a plain one does not, and each kind is timed alone
// (the other kind's freezes run outside the timer). The node has two
// lanes; the epoch is ingested outside the timer on one of them (as one
// ingest connection fills it: the lowest idle lane takes every flush, the
// other stays empty) or split across both. Beside ns/op it reports the
// server's own freeze phases per timed freeze, and unexplained-µs/op, the
// time per freeze they leave out.
func BenchmarkFreeze(b *testing.B) {
	for active, lanes := range []string{"1lane", "2lanes"} {
		for _, kind := range []string{"checkpoint", "plain"} {
			b.Run(lanes+"/"+kind, func(b *testing.B) { benchmarkFreeze(b, active+1, kind == "checkpoint") })
		}
	}
}

func benchmarkFreeze(b *testing.B, active int, checkpoint bool) {
	cfg := Config{
		Sample:      core.Config{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 7, K: 1024},
		Assignments: 8,
		Retain:      8,
		Lanes:       2,
	}
	st, err := store.Open(store.Config{Dir: b.TempDir(), Retain: cfg.Retain, Sample: cfg.Sample, Assignments: cfg.Assignments})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	cfg.Store = st
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	next := 0
	weights := make([]float64, cfg.Assignments)
	epoch := func() {
		s.ingestMu.RLock()
		defer s.ingestMu.RUnlock()
		for i := 0; i < 8*cfg.Sample.K; i, next = i+1, next+1 {
			for a := range weights {
				weights[a] = 1 + float64((next*(a+3))%97)
			}
			slot := s.ingest.lanes[i*active/(8*cfg.Sample.K)] // lane j takes the j-th share
			slot.mu.Lock()
			slot.ml.OfferVector(key13(next), weights)
			slot.mu.Unlock()
		}
	}
	freeze := func() {
		if _, err := s.freeze(); err != nil {
			b.Fatal(err)
		}
	}
	// The first full-ring commit, epoch Retain+1, is a checkpoint; so is
	// every ⌈Retain/2⌉-th after it.
	isCheckpoint := func(epoch int) bool { return (epoch-cfg.Retain-1)%((cfg.Retain+1)/2) == 0 }
	for e := 0; e < cfg.Retain; e++ { // fill the ring
		epoch()
		freeze()
	}
	phases := []struct {
		name string
		h    *obs.Histogram
	}{{"detach", s.om.freezeDetach}, {"merge", s.om.freezeMerge}, {"persist", s.om.freezePersist}, {"publish", s.om.freezePublish}}
	sums := make([]time.Duration, len(phases))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for isCheckpoint(s.Epoch()+1) != checkpoint {
			epoch()
			freeze()
		}
		epoch()
		for p, ph := range phases {
			sums[p] -= ph.h.Snapshot().Sum
		}
		b.StartTimer()
		freeze()
		b.StopTimer()
		for p, ph := range phases {
			sums[p] += ph.h.Snapshot().Sum
		}
		b.StartTimer()
	}
	b.StopTimer()
	var explained time.Duration
	for p, ph := range phases { // the server's own cws_freeze_phase_seconds, per timed freeze
		b.ReportMetric(float64(sums[p])/float64(b.N)/1e3, ph.name+"-µs/op")
		explained += sums[p]
	}
	b.ReportMetric(float64(b.Elapsed()-explained)/float64(b.N)/1e3, "unexplained-µs/op")
}
