// Package rec is the benchmark's recorder: exact per-request samples with
// the minimum-sample guard, and accounting of the server processes the
// benchmark starts (CPU time and peak memory from the kernel's own
// records, which survive SIGKILL), with clean-up on every exit path.
package rec

import (
	"fmt"
	"math"
	"sort"
)

// Samples holds every measurement of one metric in one run. Quantiles are
// taken from the samples themselves, never from histogram buckets: a
// bucketed p50 moves a whole bucket (12.5 % in internal/obs) when the true
// median crosses a bucket edge.
type Samples struct {
	v      []float64
	sorted bool
}

// Add records one sample.
func (s *Samples) Add(x float64) {
	s.v = append(s.v, x)
	s.sorted = false
}

// N returns the number of samples.
func (s *Samples) N() int { return len(s.v) }

func (s *Samples) sort() {
	if !s.sorted {
		sort.Float64s(s.v)
		s.sorted = true
	}
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// between the two nearest order statistics; NaN when there are no samples.
func (s *Samples) Quantile(q float64) float64 {
	if len(s.v) == 0 {
		return math.NaN()
	}
	s.sort()
	pos := q * float64(len(s.v)-1)
	lo := int(pos)
	if lo >= len(s.v)-1 {
		return s.v[len(s.v)-1]
	}
	frac := pos - float64(lo)
	return s.v[lo] + frac*(s.v[lo+1]-s.v[lo])
}

// Mean returns the arithmetic mean; NaN when there are no samples.
func (s *Samples) Mean() float64 {
	sum := 0.0
	for _, x := range s.v {
		sum += x
	}
	return sum / float64(len(s.v))
}

// Median returns the 0.5-quantile.
func (s *Samples) Median() float64 { return s.Quantile(0.5) }

// tailBeyond is how many samples must lie beyond a reported percentile.
const tailBeyond = 10

// Tail returns the highest of p90, p95, p99 and p99.9 that has at least ten
// samples beyond it, and that percentile; (NaN, 0) when even p90 has not.
func (s *Samples) Tail() (value, percentile float64) {
	value = math.NaN()
	for _, p := range []float64{90, 95, 99, 99.9} {
		if float64(len(s.v))*(1-p/100) < tailBeyond {
			break
		}
		value, percentile = s.Quantile(p/100), p
	}
	return value, percentile
}

// Percentile returns the p-th percentile, or an error when fewer than ten
// samples lie beyond it.
func (s *Samples) Percentile(p float64) (float64, error) {
	if float64(len(s.v))*(1-p/100) < tailBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d in all", p, tailBeyond, len(s.v))
	}
	return s.Quantile(p / 100), nil
}

// Require returns an error when fewer than min samples were recorded: a
// metric under its minimum fails the run instead of being printed.
func (s *Samples) Require(name string, min int) error {
	if len(s.v) < min {
		return fmt.Errorf("%s: %d samples, minimum %d", name, len(s.v), min)
	}
	return nil
}

// String summarises the samples for the human-readable report.
func (s *Samples) String() string {
	if len(s.v) == 0 {
		return "n=0"
	}
	out := fmt.Sprintf("p25=%.4g p50=%.4g p75=%.4g", s.Quantile(0.25), s.Median(), s.Quantile(0.75))
	if v, p := s.Tail(); p > 0 {
		out += fmt.Sprintf(" p%g=%.4g", p, v)
	}
	return out + fmt.Sprintf(" n=%d", len(s.v))
}
