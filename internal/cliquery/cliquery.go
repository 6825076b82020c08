// Package cliquery dispatches the query vocabulary shared by every query
// front end — the cws-sketch and cws-merge command-line tools and the
// cws-serve HTTP server — onto a dispersed summary, so all of them answer
// identically-named queries identically. That single dispatch path is what
// makes "query at the site", "query shipped files at the combiner", and
// "query the live server" directly comparable: the same query over the
// same sketches yields the bit-identical estimate everywhere.
//
// Answering a query has two phases with very different costs: building the
// AW-summary for the aggregate (an estimator pass over the union of the
// sketches' keys), then summing it over the subpopulation: every front end
// asks a key prefix, one run of the summary's sorted keys (AWSummary.Within,
// bit-identical to a predicate scan). The SummaryBuilder hook separates the
// phases so a resident process memoizes whole summaries per frozen snapshot,
// one build serving every prefix; every front end funnels through AnswerVia.
package cliquery

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"coordsample/internal/dataset"
	"coordsample/internal/estimate"
)

// Queries lists the supported query names for usage messages.
const Queries = "sum, total, min, max, L1, lth, jaccard"

// ParseR parses a comma-separated assignment subset against n assignments;
// the empty string selects all (nil). Duplicate indices are rejected here —
// the estimators treat R as a set and panic on duplicates, which must
// surface as a parse error, not a crash, when R comes from a CLI flag or a
// query parameter.
func ParseR(s string, n int) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var R []int
	seen := make(map[int]bool)
	for _, part := range strings.Split(s, ",") {
		b, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || b < 0 || b >= n {
			return nil, fmt.Errorf("invalid assignment index %q", part)
		}
		if seen[b] {
			return nil, fmt.Errorf("duplicate assignment index %d in %q", b, s)
		}
		seen[b] = true
		R = append(R, b)
	}
	return R, nil
}

// ParseEpochRange parses an epoch-range selector as accepted by the
// server's ?epochs= query parameter and cws-merge's -epochs flag: "3..7"
// selects epochs 3 through 7 inclusive, a bare "5" selects epoch 5 alone.
// Epochs are 1-based (epoch n is published by the n-th freeze); whether
// the range is still retained is the callee's check, not the parser's.
func ParseEpochRange(s string) (lo, hi int, err error) {
	first, second, ranged := strings.Cut(s, "..")
	lo, err = strconv.Atoi(strings.TrimSpace(first))
	if err == nil && ranged {
		hi, err = strconv.Atoi(strings.TrimSpace(second))
	} else if err == nil {
		hi = lo
	}
	if err != nil || lo < 1 || hi < lo {
		return 0, 0, fmt.Errorf("invalid epoch range %q (want \"lo..hi\" with 1 <= lo <= hi, or a single epoch)", s)
	}
	return lo, hi, nil
}

// SummaryBuilder supplies the AW-summary for one aggregate. key canonically
// identifies the aggregate (query name plus its b/R/ℓ parameters — never the
// subpopulation predicate, which is applied later); build constructs the
// summary from the dispersed estimators. The pass-through builder is Direct;
// a resident server installs a snapshot-scoped memo instead, so repeated
// queries against one frozen snapshot rebuild nothing.
type SummaryBuilder func(key string, build func() estimate.AWSummary) estimate.AWSummary

// Direct is the memoization-free SummaryBuilder: it builds the summary on
// every call, the reference a memoizing builder must agree with.
func Direct(key string, build func() estimate.AWSummary) estimate.AWSummary { return build() }

// aggKey canonicalizes an aggregate identity for SummaryBuilder memoization.
// The estimator family name is part of the key: a memoizing server must
// never serve an AW-family summary for a discarded-family query (or vice
// versa), even though some kinds coincide in value. A nil R and an
// explicitly enumerated all-assignments R select the same estimator, but
// callers pass one form consistently per process, so the textual form is
// canonical enough — a conservative key can only cause an extra build,
// never a wrong reuse.
func aggKey(est, query string, R []int, extra int) string {
	var sb strings.Builder
	sb.WriteString(est)
	sb.WriteByte('/')
	sb.WriteString(query)
	sb.WriteByte('/')
	sb.WriteString(strconv.Itoa(extra))
	sb.WriteString("/R=")
	for i, b := range R {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.Itoa(b))
	}
	if R == nil {
		sb.WriteString("all")
	}
	return sb.String()
}

// Reads returns the assignments AnswerVia reads to answer query: b alone for
// "sum" (none when AnswerVia will refuse b), else R — nil meaning all n, as
// everywhere. A serving state that merges per assignment (core.Merged)
// ensures exactly these before the query is answered.
func Reads(query string, b int, R []int, n int) []int {
	switch {
	case query != "sum":
		return R
	case b < 0 || b >= n:
		return []int{}
	}
	return []int{b}
}

// AnswerVia evaluates the named query over the summary restricted to pred
// (nil selects all keys): "sum" (single assignment b), "total" (sum across
// the assignments of R), "min"/"max" dominance, "L1" difference, "lth"
// (ℓ-th largest, ℓ = l), or "jaccard" (clamped ratio, 1 by convention for
// an empty subpopulation), using the estimator family est (nil selects the
// default AW family). It returns a human-readable label, the estimate, and
// the estimated standard error (NaN for jaccard, a ratio of estimates with
// no unbiased variance estimator). Every AW-summary the query needs comes
// through via (Direct builds each one), letting a caller cache summaries
// across calls that share a frozen snapshot: the estimate for a given
// summary and predicate is deterministic (sorted-order Neumaier
// summation), so memoizing the summary cannot change any answer.
func AnswerVia(d *estimate.Dispersed, query string, b int, R []int, l int, pred dataset.Pred, est estimate.Estimator, via SummaryBuilder) (string, float64, float64, error) {
	if est == nil {
		est = estimate.AWEstimator
	}
	nR := len(R)
	if R == nil {
		nR = d.NumAssignments()
	}
	// summarize obtains one aggregate's summary through the builder, keyed
	// by estimator family + aggregate identity.
	summarize := func(query string, extra int, f estimate.AggFunc) estimate.AWSummary {
		return via(aggKey(est.Name(), query, R, extra), func() estimate.AWSummary { return est.Summary(d, f) })
	}
	withErr := func(label string, aw estimate.AWSummary) (string, float64, float64, error) {
		v, se := aw.EstimateWithStdErr(pred)
		return label, v, se, nil
	}
	switch query {
	case "sum":
		if b < 0 || b >= d.NumAssignments() {
			return "", 0, 0, fmt.Errorf("assignment index %d out of range (have %d assignments)", b, d.NumAssignments())
		}
		aw := via(aggKey(est.Name(), "sum", nil, b), func() estimate.AWSummary { return est.Summary(d, estimate.SingleOf(b)) })
		return withErr(fmt.Sprintf("sum b=%d", b), aw)
	case "total":
		return withErr("total weight", summarize("total", 0, estimate.TotalOf(R...)))
	case "min":
		return withErr("min-dominance", summarize("min", 0, estimate.MinOf(R...)))
	case "max":
		return withErr("max-dominance", summarize("max", 0, estimate.MaxOf(R...)))
	case "L1":
		return withErr("L1 difference", summarize("L1", 0, estimate.RangeOf(R...)))
	case "lth":
		if l < 1 || l > nR {
			return "", 0, 0, fmt.Errorf("-l %d out of range for |R|=%d", l, nR)
		}
		return withErr(fmt.Sprintf("%d-th largest", l), summarize("lth", l, estimate.LthLargestOf(l, R...)))
	case "jaccard":
		// The numerator reuses the "min" query's summary. The denominator is
		// Σ w^(maxR): directly for the classic family (sharing the "max"
		// summary); via Σ w^(sumR) − Σ w^(minR) when a discarded-samples
		// total is available for the subset (sharing the "total" summary) —
		// that is the tighter union-size denominator of arXiv:0903.0625.
		mn := summarize("min", 0, estimate.MinOf(R...)).Estimate(pred)
		var mx float64
		if est.Name() == estimate.DiscardedEstimator.Name() && nR == 2 {
			mx = summarize("total", 0, estimate.TotalOf(R...)).Estimate(pred) - mn
		} else {
			mx = summarize("max", 0, estimate.MaxOf(R...)).Estimate(pred)
		}
		return "weighted Jaccard", estimate.JaccardRatio(mn, mx), math.NaN(), nil
	default:
		return "", 0, 0, fmt.Errorf("unknown query %q (want one of %s)", query, Queries)
	}
}
