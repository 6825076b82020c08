package bench

import (
	"fmt"
	"strconv"
	"strings"

	"coordsample/bench/gen"
	"coordsample/internal/dataset"
	"coordsample/internal/estimate"
)

// estimators are the two estimator families of the battery, by est=.
var estimators = [...]estimate.Estimator{estimate.AWEstimator, estimate.DiscardedEstimator}

// Combos is the number of (aggregate, assignment subset, estimator)
// combinations of the battery: each needs its own summary on the server.
const Combos = int(gen.NumAggs) * gen.NumRSets * len(estimators)

// query is one request to /query or /cluster/query.
type query struct {
	combo  int        // aggregate, subset and estimator, see the accessors
	prefix gen.Prefix // predicate
	lo, hi int        // epoch window; 0, 0 = the whole stream
}

func (q query) agg() gen.Agg { return gen.Agg(q.combo % int(gen.NumAggs)) }
func (q query) rset() int    { return q.combo / int(gen.NumAggs) % gen.NumRSets }
func (q query) est() int     { return q.combo / (int(gen.NumAggs) * gen.NumRSets) }

// summaryKey identifies the server-side summary the query needs: the
// combination and the window, not the predicate. A query is cold when its
// summary has not been asked for on the serving snapshot yet.
func (q query) summaryKey() [3]int { return [3]int{q.combo, q.lo, q.hi} }

// params returns the query string for w assignments.
func (q query) params(w int) string {
	var sb strings.Builder
	sb.WriteString("agg=")
	sb.WriteString(q.agg().String())
	if q.agg() == gen.Sum {
		sb.WriteString("&b=")
		sb.WriteString(strconv.Itoa(gen.SumB(q.rset(), w)))
	} else if R := gen.RSet(q.rset(), w); R != nil {
		sb.WriteString("&R=")
		sb.WriteString(strconv.Itoa(R[0]))
		sb.WriteByte(',')
		sb.WriteString(strconv.Itoa(R[1]))
	}
	if q.agg() == gen.Lth {
		sb.WriteString("&l=")
		sb.WriteString(strconv.Itoa(gen.LthL))
	}
	sb.WriteString("&est=")
	sb.WriteString(estimators[q.est()].Name())
	if q.prefix.Level > 0 {
		sb.WriteString("&prefix=")
		sb.WriteString(q.prefix.String())
	}
	if q.lo > 0 {
		fmt.Fprintf(&sb, "&epochs=%d..%d", q.lo, q.hi)
	}
	return sb.String()
}

// pred returns the predicate as the offline pipeline takes it.
func (q query) pred() dataset.Pred {
	if q.prefix.Level == 0 {
		return nil
	}
	p := q.prefix.String()
	return func(key string) bool { return strings.HasPrefix(key, p) }
}

// rotatingPrefix returns the i-th predicate of the warm rotation: classes
// and cells in turn, so successive warm queries scan the same summary under
// different 1/16 and 1/256 predicates.
func rotatingPrefix(i int) gen.Prefix {
	return gen.Prefix{Level: 1 + i%2, Class: i / 2 % 16, Digit: i / 32 % 16}
}

// answer is the part of a query response the benchmark checks.
type answer struct {
	Epoch    int      `json:"epoch"`
	Estimate float64  `json:"estimate"`
	StdErr   *float64 `json:"stderr"`
	Degraded bool     `json:"degraded"`
}
