package estimate

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// withinSummaries are summaries whose keys share many prefixes, down to the
// 0x00 and 0xff bytes at either end of the byte order: one with variances,
// one with zero variances (every key included with certainty), and their
// Sub, an L1 summary with negative entries.
func withinSummaries() map[string]AWSummary {
	rng := rand.New(rand.NewSource(47))
	alphabet := []byte{0x00, 'a', 'b', 0xfe, 0xff}
	key := func() string {
		b := make([]byte, 1+rng.Intn(4))
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
	withVar, certain := NewAWSummary(0), NewAWSummary(0)
	for i := 0; i < 300; i++ {
		withVar.SetWithProb(key(), math.Exp(rng.NormFloat64()*8), 0.05+0.9*rng.Float64())
		certain.Set(key(), math.Exp(rng.NormFloat64()*8))
	}
	return map[string]AWSummary{"with-variances": withVar, "zero-variances": certain, "sub": Sub(withVar, certain), "empty": {}}
}

// withinPrefixes are the prefixes every boundary case of the run search
// meets on s: none, each end of the byte order, a whole key, a key and one
// more byte, a prefix that sorts between two keys, one past the last key,
// and prefixes that end in 0xff.
func withinPrefixes(s AWSummary) []string {
	ps := []string{"", "\x00", "\xff", "\xff\xff", "a\xff", "\x00\xff\xff"}
	if keys := s.Keys(); len(keys) > 0 {
		mid := keys[len(keys)/2]
		ps = append(ps, mid, mid+"\x00", mid+"a", mid+"\xff", keys[len(keys)-1]+"\x00", keys[0][:1])
		for i := 1; i < len(keys); i++ {
			// The shortest string strictly between two keys, if one is.
			if between := keys[i-1] + "\x00"; between < keys[i] {
				ps = append(ps, between)
				break
			}
		}
	}
	return ps
}

// TestWithinMatchesPrefixScan: the run Within selects answers float-bit
// identically to a strings.HasPrefix scan of every key, estimate and
// stderr, and holds exactly the keys that scan selects.
func TestWithinMatchesPrefixScan(t *testing.T) {
	for name, s := range withinSummaries() {
		for _, prefix := range withinPrefixes(s) {
			pred := func(key string) bool { return strings.HasPrefix(key, prefix) }
			w := s.Within(prefix)
			var want []string
			for _, key := range s.Keys() {
				if pred(key) {
					want = append(want, key)
				}
			}
			if !slices.Equal(w.Keys(), want) {
				t.Errorf("%s Within(%q) holds %d keys, not the %d the scan selects in its order", name, prefix, w.Len(), len(want))
			}
			if got, want := w.Estimate(nil), s.Estimate(pred); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s Within(%q).Estimate = %v, scan %v", name, prefix, got, want)
			}
			got, gotSE := w.EstimateWithStdErr(nil)
			want2, wantSE := s.EstimateWithStdErr(pred)
			if math.Float64bits(got) != math.Float64bits(want2) || math.Float64bits(gotSE) != math.Float64bits(wantSE) {
				t.Errorf("%s Within(%q).EstimateWithStdErr = %v ± %v, scan %v ± %v", name, prefix, got, gotSE, want2, wantSE)
			}
		}
	}
}

// TestWithinAppendLeavesParent: a Within result shares its parent's columns
// up to its own length only, so setting keys on it, past its end or inside
// it, never writes into the parent.
func TestWithinAppendLeavesParent(t *testing.T) {
	for name, s := range withinSummaries() {
		for _, prefix := range withinPrefixes(s) {
			before := AWSummary{keys: slices.Clone(s.keys), weights: slices.Clone(s.weights), vars: slices.Clone(s.vars)}
			w := s.Within(prefix)
			w.SetWithProb(prefix+"\xff\xff\xff\xff\xff", 1, 0.5)
			w.SetWithProb(prefix, 2, 0.5)
			if !s.Equal(before) {
				t.Fatalf("%s: setting keys on Within(%q) changed the parent summary", name, prefix)
			}
		}
	}
}

// TestWithinAllocations: selecting a run and summing it allocates nothing.
func TestWithinAllocations(t *testing.T) {
	s := AWEstimator.Summary(coldDispersed(1024, 4), MaxOf())
	for _, prefix := range []string{"", "k3", "k3a", "k\xff"} {
		if allocs := testing.AllocsPerRun(20, func() { s.Within(prefix).EstimateWithStdErr(nil) }); allocs != 0 {
			t.Errorf("Within(%q).EstimateWithStdErr(nil): %v allocations, want 0", prefix, allocs)
		}
	}
}
