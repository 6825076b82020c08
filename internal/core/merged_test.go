package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"coordsample/internal/cliquery"
	"coordsample/internal/estimate"
	"coordsample/internal/rank"
	"coordsample/internal/shard"
	"coordsample/internal/sketch"
)

var mergedCfg = Config{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 41, K: 48}

const mergedAssignments = 4

// disjointSets sketches one heavy-tailed stream as `parts` sets over
// disjoint key sets — key i goes to part(i) — each holding one sketch per
// assignment: the epochs of a window, or the peers of a cluster.
func disjointSets(cfg Config, numKeys, parts int, seed int64, part func(key string, i int) int) [][]*sketch.BottomK {
	rng := rand.New(rand.NewSource(seed))
	sketchers := make([][]*AssignmentSketcher, parts)
	for p := range sketchers {
		for b := 0; b < mergedAssignments; b++ {
			sketchers[p] = append(sketchers[p], NewAssignmentSketcher(cfg, b))
		}
	}
	for i := 0; i < numKeys; i++ {
		key := fmt.Sprintf("host-%05d", i)
		base := math.Exp(rng.NormFloat64() * 2)
		for b := 0; b < mergedAssignments; b++ {
			if rng.Float64() < 0.8 {
				sketchers[part(key, i)][b].Offer(key, base*(0.5+rng.Float64()))
			}
		}
	}
	sets := make([][]*sketch.BottomK, parts)
	for p, row := range sketchers {
		for _, sk := range row {
			sets[p] = append(sets[p], sk.Sketch())
		}
	}
	return sets
}

// mergedQuery is one query of the differential vocabulary.
type mergedQuery struct {
	agg  string
	b, l int
	R    []int
	est  estimate.Estimator
	pred func(string) bool
}

func (q mergedQuery) String() string {
	return fmt.Sprintf("%s b=%d l=%d R=%v est=%s pred=%t", q.agg, q.b, q.l, q.R, q.est.Name(), q.pred != nil)
}

// mergedVocabulary is every cliquery aggregate × {all assignments, a pair, a
// single one} × both estimator families, some under a key-prefix predicate.
func mergedVocabulary() []mergedQuery {
	var qs []mergedQuery
	prefix := func(key string) bool { return strings.HasPrefix(key, "host-000") }
	for _, est := range []estimate.Estimator{estimate.AWEstimator, estimate.DiscardedEstimator} {
		for _, b := range []int{0, 2} {
			qs = append(qs, mergedQuery{agg: "sum", b: b, l: 1, est: est})
		}
		qs = append(qs, mergedQuery{agg: "sum", b: 3, l: 1, est: est, pred: prefix})
		for _, R := range [][]int{nil, {1, 3}, {2}} {
			for _, agg := range []string{"total", "min", "max", "L1", "lth", "jaccard"} {
				qs = append(qs, mergedQuery{agg: agg, l: 1, R: R, est: est})
			}
			if len(R) != 1 {
				qs = append(qs, mergedQuery{agg: "lth", l: 2, R: R, est: est}, mergedQuery{agg: "max", l: 1, R: R, est: est, pred: prefix})
			}
		}
	}
	return qs
}

// TestMergedDifferential: over windows of one epoch, several epochs and the
// whole ring, and over a three-peer cluster gather, every query of the
// vocabulary — asked in shuffled orders, so assignments are merged in
// different sequences and by different first queries — answers float-bit
// identically (estimate and stderr) to a fresh MergeSets → CombineDispersed
// → AnswerVia(Direct), and a state has merged exactly the assignments its
// queries read so far.
func TestMergedDifferential(t *testing.T) {
	const epochs = 6
	ring := disjointSets(mergedCfg, 3000, epochs, 5, func(_ string, i int) int { return i % epochs })
	peers := disjointSets(mergedCfg, 3000, 3, 6, func(key string, _ int) int { return shard.ShardOf(key, 3) })
	cases := map[string][][]*sketch.BottomK{
		"window 1..1": ring[:1], "window 2..5": ring[1:5], "whole ring": ring, "three peers": peers,
	}
	vocabulary := mergedVocabulary()
	for name, sets := range cases {
		eager, err := sketch.MergeSets(sets...)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := CombineDispersed(mergedCfg, eager)
		if err != nil {
			t.Fatal(err)
		}
		for order := int64(0); order < 3; order++ {
			m := NewMerged(mergedCfg, sets)
			read := make([]bool, mergedAssignments)
			qs := slices.Clone(vocabulary)
			rand.New(rand.NewSource(order)).Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
			for _, q := range qs {
				bs := cliquery.Reads(q.agg, q.b, q.R, mergedAssignments)
				if bs == nil {
					bs = []int{0, 1, 2, 3}
				}
				fresh := 0
				for _, b := range bs {
					if !read[b] {
						read[b], fresh = true, fresh+1
					}
				}
				n, err := m.Ensure(cliquery.Reads(q.agg, q.b, q.R, mergedAssignments))
				if err != nil || n != fresh {
					t.Fatalf("%s order %d %v: Ensure merged %d (err %v), want %d", name, order, q, n, err, fresh)
				}
				for b := range m.slots {
					if got := m.slots[b].sk.Load() != nil; got != read[b] {
						t.Fatalf("%s order %d after %v: assignment %d merged=%t, read=%t", name, order, q, b, got, read[b])
					}
				}
				_, want, wantSE, wantErr := cliquery.AnswerVia(oracle, q.agg, q.b, q.R, q.l, q.pred, q.est, cliquery.Direct)
				_, got, gotSE, gotErr := cliquery.AnswerVia(m.Summary(), q.agg, q.b, q.R, q.l, q.pred, q.est, m.SummaryFor)
				if wantErr != nil || gotErr != nil {
					t.Fatalf("%s order %d %v: oracle error %v, state error %v", name, order, q, wantErr, gotErr)
				}
				if math.Float64bits(got) != math.Float64bits(want) || math.Float64bits(gotSE) != math.Float64bits(wantSE) {
					t.Errorf("%s order %d %v: state (%v ± %v) != oracle (%v ± %v)", name, order, q, got, gotSE, want, wantSE)
				}
			}
			for b := range m.slots {
				if !read[b] {
					t.Fatalf("%s: the vocabulary never read assignment %d", name, b)
				}
				if !sameSketch(m.Sketch(b), eager[b]) {
					t.Errorf("%s order %d: merged sketch of assignment %d differs from sketch.Merge's", name, order, b)
				}
				if m.slots[b].inputs != nil {
					t.Errorf("%s order %d: assignment %d still holds its input column", name, order, b)
				}
			}
		}
	}
}

// sameSketch compares everything a merged sketch carries.
func sameSketch(a, b *sketch.BottomK) bool {
	return a.K() == b.K() && a.Fingerprint() == b.Fingerprint() &&
		math.Float64bits(a.KthRank()) == math.Float64bits(b.KthRank()) &&
		math.Float64bits(a.Threshold()) == math.Float64bits(b.Threshold()) &&
		slices.Equal(a.Entries(), b.Entries())
}

// TestMergedReadsNothingUnensured: an empty subset merges nothing, and
// reading an assignment no Ensure covered is refused loudly instead of
// answering from an unmerged column.
func TestMergedReadsNothingUnensured(t *testing.T) {
	sets := disjointSets(mergedCfg, 500, 2, 7, func(_ string, i int) int { return i % 2 })
	m := NewMerged(mergedCfg, sets)
	if n, err := m.Ensure(cliquery.Reads("sum", 9, nil, mergedAssignments)); n != 0 || err != nil {
		t.Fatalf("Ensure of a refused query's assignments merged %d (err %v)", n, err)
	}
	if n, err := m.Ensure([]int{1}); n != 1 || err != nil {
		t.Fatalf("Ensure([1]) = %d, %v", n, err)
	}
	if m.Sketch(0) != nil || m.slots[0].inputs == nil {
		t.Error("an assignment nobody ensured was merged")
	}
	defer func() {
		if recover() == nil {
			t.Error("reading an unensured assignment did not panic")
		}
	}()
	m.Summary().Single(0)
}

// TestMergedConcurrentEnsure: 32 concurrent queries with overlapping
// assignment sets on one fresh state merge each assignment exactly once,
// and every one of them reads the same merged sketches.
func TestMergedConcurrentEnsure(t *testing.T) {
	sets := disjointSets(mergedCfg, 2000, 4, 8, func(_ string, i int) int { return i % 4 })
	eager, err := sketch.MergeSets(sets...)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMerged(mergedCfg, sets)
	subsets := [][]int{{0}, {0, 1}, {1, 2}, nil, {3}, {2, 3}, {0, 3}, {1}}
	var merged atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(bs []int) {
			defer wg.Done()
			<-start
			n, err := m.Ensure(bs)
			if err != nil {
				t.Error(err)
				return
			}
			merged.Add(int64(n))
			if bs == nil {
				bs = []int{0, 1, 2, 3}
			}
			for _, b := range bs {
				if !sameSketch(m.Sketch(b), eager[b]) {
					t.Errorf("assignment %d: concurrent reader saw a sketch that is not sketch.Merge's", b)
				}
				if want := eager[b].KeyOrder(); !slices.Equal(m.Summary().Sketch(b).KeyOrder(), want) {
					t.Errorf("assignment %d: key order differs", b)
				}
			}
		}(subsets[g%len(subsets)])
	}
	close(start)
	wg.Wait()
	if got := merged.Load(); got != mergedAssignments {
		t.Errorf("32 concurrent queries merged %d assignments, want each of %d once", got, mergedAssignments)
	}
}

// TestMergedConflictIsRefusedAndNotKept: two sets holding the same key make
// that assignment's merge an error naming the key — every time, nothing of
// it kept — while the state's other assignments merge and answer.
func TestMergedConflictIsRefusedAndNotKept(t *testing.T) {
	sets := disjointSets(mergedCfg, 40, 2, 9, func(_ string, i int) int { return i % 2 })
	for p := range sets {
		sk := NewAssignmentSketcher(mergedCfg, 2)
		sk.Offer("twice", 5)
		sk.Offer(fmt.Sprintf("only-%d", p), 1)
		sets[p][2] = sk.Sketch()
	}
	m := NewMerged(mergedCfg, sets)
	for attempt := 0; attempt < 2; attempt++ {
		n, err := m.Ensure(nil)
		if err == nil || !strings.Contains(err.Error(), "assignment 2") || !strings.Contains(err.Error(), `"twice"`) {
			t.Fatalf("attempt %d: Ensure(all) error %v, want a refusal naming assignment 2 and the key", attempt, err)
		}
		if want := 3 * (1 - attempt); n != want {
			t.Errorf("attempt %d: merged %d assignments beside the refused one, want %d", attempt, n, want)
		}
		if m.slots[2].sk.Load() != nil || len(m.slots[2].inputs) != 2 {
			t.Errorf("attempt %d: the refused assignment was kept (or lost its inputs)", attempt)
		}
	}
	if _, _, _, err := cliquery.AnswerVia(m.Summary(), "max", 0, []int{0, 1, 3}, 1, nil, nil, m.SummaryFor); err != nil {
		t.Errorf("the other assignments do not answer: %v", err)
	}
}

// TestMergedFingerprintMismatch: an input built under another seed, and a
// column that is consistent but sits at the wrong assignment index, are
// refused with *sketch.FingerprintMismatchError for exactly the offending
// assignment; the rest of the state is unaffected.
func TestMergedFingerprintMismatch(t *testing.T) {
	other := mergedCfg
	other.Seed++
	foreign := func(cfg Config, b int, key string) *sketch.BottomK {
		sk := NewAssignmentSketcher(cfg, b)
		sk.Offer(key, 3)
		return sk.Sketch()
	}
	sets := disjointSets(mergedCfg, 400, 3, 10, func(_ string, i int) int { return i % 3 })
	sets[1][1] = foreign(other, 1, "foreign") // an input of assignment 1 from another configuration
	for p := range sets {
		sets[p][3] = foreign(mergedCfg, 0, fmt.Sprintf("misplaced-%d", p)) // assignment 3's column, all built as assignment 0
	}
	m := NewMerged(mergedCfg, sets)
	for _, bad := range []int{1, 3} {
		n, err := m.Ensure([]int{bad})
		var mismatch *sketch.FingerprintMismatchError
		if !errors.As(err, &mismatch) || n != 0 || m.slots[bad].sk.Load() != nil {
			t.Errorf("assignment %d: Ensure = %d, %v; want a FingerprintMismatchError and nothing kept", bad, n, err)
		}
	}
	if n, err := m.Ensure([]int{0, 2}); n != 2 || err != nil {
		t.Errorf("the sound assignments: Ensure = %d, %v", n, err)
	}
	if _, err := m.Ensure(nil); err == nil || !strings.Contains(err.Error(), "assignment 1") {
		t.Errorf("Ensure(all) reports %v, want the lowest failing assignment (1)", err)
	}
}
