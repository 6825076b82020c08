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
// ring of 8 — so every timed freeze freezes the lanes, merges the
// cumulative, and writes the epoch and cumulative segments and the
// manifest. The node has two lanes; the epoch is ingested outside the
// timer on one of them (as one ingest connection fills it: the lowest idle
// lane takes every flush, the other stays empty) or split across both.
// Beside ns/op it reports the server's own freeze phases per freeze.
func BenchmarkFreeze(b *testing.B) {
	b.Run("1lane", func(b *testing.B) { benchmarkFreeze(b, 1) })
	b.Run("2lanes", func(b *testing.B) { benchmarkFreeze(b, 2) })
}

func benchmarkFreeze(b *testing.B, active int) {
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
	for e := 0; e < cfg.Retain; e++ { // fill the ring
		epoch()
		freeze()
	}
	phases := []struct {
		name string
		h    *obs.Histogram
	}{{"detach", s.om.freezeDetach}, {"merge", s.om.freezeMerge}, {"persist", s.om.freezePersist}, {"publish", s.om.freezePublish}}
	before := make([]time.Duration, len(phases))
	for p, ph := range phases {
		before[p] = ph.h.Snapshot().Sum
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		epoch()
		b.StartTimer()
		freeze()
	}
	for p, ph := range phases { // the server's own cws_freeze_phase_seconds, per timed freeze
		b.ReportMetric(float64(ph.h.Snapshot().Sum-before[p])/float64(b.N)/1e3, ph.name+"-µs/op")
	}
}
