package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"

	"coordsample/bench/gen"
	"coordsample/bench/rec"
	"coordsample/internal/cliquery"
	"coordsample/internal/core"
	"coordsample/internal/estimate"
	"coordsample/internal/sketch"
)

// The accuracy battery asks, of the whole stream and of each of the last
// AccuracyEpoch single epochs: every combination without a predicate, four
// combinations under each of the 16 class predicates, and one under each of
// the 256 cell predicates, rotating the combinations so that all of
// {sum, total, min, max, L1, lth} × {all, {0,1}, {0,|W|−1}} × {aw, discarded}
// × {no prefix, 1/16, 1/256} are covered. Distinct cells and distinct epochs
// are disjoint key sets, so their errors are independent draws: that, not
// the number of correlated aggregates per cell, is what makes the mean steady
// from seed to seed.
const batteryPerClass = 4

// battery returns the accuracy queries of window number i (lo, hi = 0 for
// the whole stream).
func battery(i, lo, hi int) []query {
	var qs []query
	for c := 0; c < Combos; c++ {
		qs = append(qs, query{combo: c, lo: lo, hi: hi})
	}
	for class := 0; class < 16; class++ {
		for j := 0; j < batteryPerClass; j++ {
			qs = append(qs, query{
				combo:  (i*5 + class*batteryPerClass + j*(Combos/batteryPerClass)) % Combos,
				prefix: gen.Prefix{Level: 1, Class: class},
				lo:     lo, hi: hi,
			})
		}
	}
	for cell := 0; cell < gen.Cells; cell++ {
		qs = append(qs, query{
			combo:  (i*7 + cell) % Combos,
			prefix: gen.Prefix{Level: 2, Class: cell >> 4, Digit: cell & 15},
			lo:     lo, hi: hi,
		})
	}
	return qs
}

// offline answers queries from the reference sketches the benchmark built
// itself from the generated stream, through the same query dispatch the
// command-line tools use, keeping each summary it builds.
type offline struct {
	d    *estimate.Dispersed
	memo map[string]estimate.AWSummary
}

func newOffline(cfg core.Config, ref []*core.AssignmentSketcher) (*offline, error) {
	sketches := make([]*sketch.BottomK, len(ref))
	for b, s := range ref {
		sketches[b] = s.Sketch()
	}
	d, err := core.CombineDispersed(cfg, sketches)
	if err != nil {
		return nil, err
	}
	return &offline{d: d, memo: make(map[string]estimate.AWSummary)}, nil
}

func (o *offline) answer(q query, w int) (est, stderr float64, err error) {
	via := func(key string, build func() estimate.AWSummary) estimate.AWSummary {
		aw, ok := o.memo[key]
		if !ok {
			aw = build()
			o.memo[key] = aw
		}
		return aw
	}
	_, est, stderr, err = cliquery.AnswerVia(o.d, q.agg().String(), gen.SumB(q.rset(), w), gen.RSet(q.rset(), w), gen.LthL, q.pred(), estimators[q.est()], via)
	return est, stderr, err
}

// verify runs after the timed rounds: the accuracy battery against the
// generator's exact truth, the bit-identity of every battery answer against
// the offline pipeline over the same stream, and the presence of every
// acknowledged epoch on every server.
func (r *run) verify() error {
	w := r.w
	type window struct {
		lo, hi int
		truth  *gen.Truth
		ref    []*core.AssignmentSketcher
	}
	windows := []window{{0, 0, &r.truthAll, r.refAll}}
	for e := r.finalEpoch - w.AccuracyEpoch + 1; e <= r.finalEpoch; e++ {
		if e >= 1 {
			windows = append(windows, window{e, e, r.truthEpoch[e], r.refEpoch[e]})
		}
	}
	mismatches := 0
	for i, win := range windows {
		off, err := newOffline(r.cfg, win.ref)
		if err != nil {
			return err
		}
		for _, q := range battery(i, win.lo, win.hi) {
			a, _, _, ok := r.ask(r.ctl, q, -1, r.epoch)
			if !ok {
				continue
			}
			est, stderr, err := off.answer(q, w.Assignments)
			if err != nil {
				return err
			}
			r.attempt()
			if math.Float64bits(est) != math.Float64bits(a.Estimate) || math.Float64bits(stderr) != math.Float64bits(*a.StdErr) {
				mismatches++
				r.fail("answer differs from the offline pipeline: %s: served %v ± %v, offline %v ± %v",
					q.params(w.Assignments), a.Estimate, *a.StdErr, est, stderr)
			}
			truth := win.truth.Value(q.agg(), q.rset(), q.prefix)
			if truth <= 0 {
				continue // an empty subpopulation has no relative error
			}
			diff := math.Abs(a.Estimate - truth)
			r.relErr.Add(diff / truth)
			// A sample that holds the whole subpopulation is exact up to
			// the rounding of two differently ordered sums.
			if diff <= 1.96**a.StdErr+1e-9*truth {
				r.cover.Add(1)
			} else {
				r.cover.Add(0)
			}
		}
	}

	// Every acknowledged epoch is there after the last restart.
	lo := r.epoch - w.Retain + 1
	if lo < 1 {
		lo = 1
	}
	wantRing := fmt.Sprintf("%d..%d", lo, r.epoch)
	for i, n := range r.sys.nodes {
		c, err := dial(n.addr)
		if err != nil {
			return err
		}
		status, body, err := c.do(http.MethodGet, "/healthz", "", nil)
		c.close()
		var h struct {
			Epoch    int    `json:"epoch"`
			Retained string `json:"retained_epochs"`
		}
		r.attempt()
		if err != nil || status != http.StatusOK || json.Unmarshal(body, &h) != nil || h.Epoch != r.epoch || h.Retained != wantRing {
			r.fail("node %d holds %s (err %v), want epoch %d retaining %s", i, body, err, r.epoch, wantRing)
		}
	}
	r.logf("verification: %d battery answers over %d windows, %d differ from the offline pipeline; epoch %d on %d node(s)",
		r.relErr.N(), len(windows), mismatches, r.epoch, len(r.sys.nodes))
	return nil
}

// scaledMin scales a sample minimum with the round count.
func (r *run) scaledMin(n int) int {
	return int(float64(n) * float64(r.rounds-r.warmup) / float64(Rounds-WarmupRounds))
}

// result applies the minimum-sample guard and assembles the end-to-end
// metrics.
func (r *run) result() (*Result, error) {
	for _, c := range []struct {
		s    *rec.Samples
		name string
		min  int
	}{
		{&r.freeze, "freezes", Minima.Freezes},
		{&r.recover, "recoveries", Minima.Recoveries},
		{&r.cold, "cold queries", r.w.MinCold},
		{&r.warm, "warm queries", r.w.MinWarm},
		{&r.ingestReq, "ingest requests", Minima.IngestRequests},
		{&r.ingestRate, "ingest rounds", Minima.IngestRounds},
	} {
		if err := c.s.Require(c.name, r.scaledMin(c.min)); err != nil && r.failed == 0 {
			return nil, err
		}
	}
	var cpu float64
	var rssKB int64
	for _, n := range r.sys.nodes {
		cpu += n.cpu.Seconds()
		rssKB += n.maxRSSKB
	}
	res := &Result{
		Workload:  r.w.Name,
		Attempted: r.attempted,
		Failed:    r.failed,
		Correct:   r.failed == 0,
		Errors:    r.errs,
		EndToEnd: map[string]Metric{
			"setup_s":             {r.setup.Median(), "s", r.setup.N()},
			"ingest_offers_per_s": {r.ingestRate.Median(), "1/s", r.ingestRate.N()},
			"ingest_req_p50_ms":   {r.ingestReq.Median(), "ms", r.ingestReq.N()},
			"freeze_p50_ms":       {r.freeze.Median(), "ms", r.freeze.N()},
			"query_cold_p50_us":   {r.cold.Median(), "us", r.cold.N()},
			"query_warm_p50_us":   {r.warm.Median(), "us", r.warm.N()},
			"recover_p50_ms":      {r.recover.Median(), "ms", r.recover.N()},
			"server_cpu_s":        {cpu, "s", 0},
			"server_rss_mb":       {float64(rssKB) / 1024, "MB", 0},
			"store_disk_mb":       {float64(r.diskBytes) / (1 << 20), "MB", 0},
			"answer_rel_err_mean": {r.relErr.Mean(), "ratio", r.relErr.N()},
			"answer_ci95_cover":   {r.cover.Mean(), "ratio", r.cover.N()},
		},
	}
	return res, nil
}
