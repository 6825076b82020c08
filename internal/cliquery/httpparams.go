package cliquery

import (
	"fmt"
	"math"
	"net/url"
	"strconv"

	"coordsample/internal/estimate"
	"coordsample/internal/obs"
)

// HTTPParams is the parsed query-string vocabulary of GET /query, shared
// by the single-node server and the cluster scatter-gather router so both
// front ends accept the identical parameter grammar and answer through
// the same Answer method.
type HTTPParams struct {
	Agg    string             // query name (required)
	B      int                // assignment index for "sum" (default 0)
	L      int                // ℓ for "lth" (default 1)
	R      []int              // assignment subset (nil = all)
	Prefix string             // key prefix of the subpopulation ("" = all keys)
	Est    estimate.Estimator // estimator family (default AW)
	Epochs string             // epoch window as "lo..hi", however it was asked ("" = cumulative)
	Lo, Hi int                // the window's bounds (0 when Epochs is "")
}

// ParseHTTPParams parses the GET /query parameters against n assignments.
// Error messages are client-facing (they travel in 400 bodies).
func ParseHTTPParams(q url.Values, n int) (HTTPParams, error) {
	var p HTTPParams
	p.Agg = q.Get("agg")
	if p.Agg == "" {
		return p, fmt.Errorf("missing agg parameter (want one of %s)", Queries)
	}
	var err error
	if p.B, err = intParam(q.Get("b"), 0); err != nil {
		return p, fmt.Errorf("bad b parameter: %w", err)
	}
	if p.L, err = intParam(q.Get("l"), 1); err != nil {
		return p, fmt.Errorf("bad l parameter: %w", err)
	}
	if p.R, err = ParseR(q.Get("R"), n); err != nil {
		return p, fmt.Errorf("bad R parameter: %w", err)
	}
	p.Prefix = q.Get("prefix")
	if p.Est, err = estimate.ParseEstimator(q.Get("est")); err != nil {
		return p, fmt.Errorf("bad est parameter: %w", err)
	}
	if e := q.Get("epochs"); e != "" {
		if p.Lo, p.Hi, err = ParseEpochRange(e); err != nil {
			return p, fmt.Errorf("bad epochs parameter: %w", err)
		}
		p.Epochs = fmt.Sprintf("%d..%d", p.Lo, p.Hi)
	}
	return p, nil
}

// Answer answers p over summary into the response fields agg, label,
// estimate, estimator and stderr (omitted when NaN: jaccard's, which JSON
// cannot carry), under an "estimate" span of tr; each whole AW-summary comes
// through via (one it builds gets a "summarize" span) and is summed over its
// Within(p.Prefix) run. An error is the query's fault.
func (p HTTPParams) Answer(tr *obs.Trace, summary *estimate.Dispersed, via SummaryBuilder, resp map[string]any) error {
	sp := tr.Start("estimate")
	label, v, stderr, err := AnswerVia(summary, p.Agg, p.B, p.R, p.L, nil, p.Est, func(key string, build func() estimate.AWSummary) estimate.AWSummary {
		return via(key, func() estimate.AWSummary {
			defer tr.Start("summarize").End()
			return build()
		}).Within(p.Prefix)
	})
	sp.End()
	if err != nil {
		return err
	}
	// encoding/json writes the shortest form that parses back to the same
	// float64, so bit-identity survives the HTTP boundary.
	resp["agg"], resp["label"], resp["estimate"], resp["estimator"] = p.Agg, label, v, p.Est.Name()
	if !math.IsNaN(stderr) {
		resp["stderr"] = stderr
	}
	return nil
}

// intParam parses an optional integer parameter.
func intParam(s string, def int) (int, error) {
	if s == "" {
		return def, nil
	}
	return strconv.Atoi(s)
}
