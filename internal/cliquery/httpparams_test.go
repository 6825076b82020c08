package cliquery

import (
	"math"
	"net/url"
	"strings"
	"testing"

	"coordsample/internal/estimate"
	"coordsample/internal/obs"
)

// TestHTTPAnswerMatchesPrefixScan: HTTPParams.Answer sums each summary's
// key run under the prefix; AnswerVia under a strings.HasPrefix predicate
// scans every key. Every aggregate under both estimator families answers
// float-bit identically (estimate and stderr), with the prefixes asked in
// turn over one memo: a memo that kept a restricted summary would answer a
// later prefix from an earlier one's run.
func TestHTTPAnswerMatchesPrefixScan(t *testing.T) {
	d := buildSummary(t)
	memo := make(map[string]estimate.AWSummary)
	via := func(key string, build func() estimate.AWSummary) estimate.AWSummary {
		aw, ok := memo[key]
		if !ok {
			aw = build()
			memo[key] = aw
		}
		return aw
	}
	for _, est := range []string{"aw", "discarded"} {
		for _, agg := range []string{"sum&b=1", "total", "min", "max", "L1", "lth&l=2", "jaccard", "max&R=1"} {
			for _, prefix := range []string{"key-1", "key-2", "", "key-29", "nope"} {
				params := "agg=" + agg + "&est=" + est + "&prefix=" + prefix
				q, err := url.ParseQuery(params)
				if err != nil {
					t.Fatal(err)
				}
				p, err := ParseHTTPParams(q, d.NumAssignments())
				if err != nil {
					t.Fatal(err)
				}
				resp := make(map[string]any)
				if err := p.Answer(obs.NewTrace(1, "query"), d, via, resp); err != nil {
					t.Fatalf("%s: %v", params, err)
				}
				got, gotSE := resp["estimate"].(float64), math.NaN()
				if se, ok := resp["stderr"].(float64); ok {
					gotSE = se
				}
				var pred func(string) bool
				if prefix != "" {
					pred = func(key string) bool { return strings.HasPrefix(key, prefix) }
				}
				_, want, wantSE, err := AnswerVia(d, p.Agg, p.B, p.R, p.L, pred, p.Est, Direct)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got) != math.Float64bits(want) || math.Float64bits(gotSE) != math.Float64bits(wantSE) {
					t.Errorf("%s: Answer %v ± %v, prefix scan %v ± %v", params, got, gotSE, want, wantSE)
				}
			}
		}
	}
}
