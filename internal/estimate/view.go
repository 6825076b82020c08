package estimate

import (
	"encoding/binary"
	"math"
	"slices"
	"strings"

	"coordsample/internal/rank"
	"coordsample/internal/sketch"
)

// Obs is what one assignment's sketch reveals about one union key: the
// sampled weight and rank when the key is in that sketch (In), and the
// inclusion-conditioning threshold either way — r_k(I∖{key}) for bottom-k
// sketches, τ for Poisson sketches. The threshold is the raw material every
// estimator family conditions on: it is fixed on the rank-conditioning
// subspace Ω(key, r^(−key)), so F_w(threshold) is a per-assignment
// inclusion probability.
type Obs struct {
	Weight    float64
	Rank      float64
	Threshold float64
	In        bool
}

// KeyRow is the cross-assignment sample view of one union key: one Obs per
// viewed assignment, in view order (parallel to SampleView.Assignments).
type KeyRow struct {
	Key string
	Obs []Obs
}

// SampleView is the reusable cross-assignment sample view of a dispersed
// summary restricted to an assignment subset R: for every key in the union
// of R's sketches, the per-assignment weights, ranks, and inclusion
// thresholds. It is the seam between sample assembly and estimation — the
// raw material both the AW estimator family (s-set/l-set templates,
// Section 7 of the paper) and the discarded-samples family (arXiv:0903.0625)
// consume, assembled once per (summary, R) pair and shared by every
// estimator run over it (Dispersed.View keeps it).
//
// Rows are in ascending key order; Obs slices are in R order (the caller's
// subset order, not necessarily ascending assignment index).
type SampleView struct {
	assigner rank.Assigner
	r        []int
	rows     []KeyRow
}

// View returns the cross-assignment sample view over the assignment subset
// R (nil means all assignments, the same view as R listing them all in
// order). The summary keeps one view per R, in R's order: the first call
// for R builds it, every later one — any aggregate, either estimator
// family — reads the same rows. The view is immutable, so concurrent
// callers share it; like Merged.SummaryFor, the build runs outside the
// lock and racing builds keep whichever is stored first (the join is
// deterministic). The view keeps its own copy of R.
func (d *Dispersed) View(R []int) *SampleView {
	R = d.checkR(R)
	var buf [32]byte
	key := buf[:0]
	for _, b := range R {
		key = binary.AppendUvarint(key, uint64(b))
	}
	d.viewMu.Lock()
	v, ok := d.views[string(key)]
	d.viewMu.Unlock()
	if ok {
		return v
	}
	v = d.buildView(slices.Clone(R))
	d.viewMu.Lock()
	defer d.viewMu.Unlock()
	if prior, ok := d.views[string(key)]; ok {
		return prior
	}
	if d.views == nil {
		d.views = make(map[string]*SampleView)
	}
	d.views[string(key)] = v
	return v
}

// buildView assembles the view of R for View.
//
// The sample of a multi-assignment query is the union of the per-assignment
// samples, assembled by an |R|-way merge join over the sketches' key-ordered
// columns: rows come out in ascending key order with no hashing and no sort.
// The join records for each row which sketches hold its key; the rows are
// then allocated at their exact number and filled from that record.
func (d *Dispersed) buildView(R []int) *SampleView {
	type column struct {
		entries []sketch.Entry
		order   []int32 // entries' indexes in ascending key order
		next    int     // position in order of the first unjoined entry
		in, out float64 // conditioning threshold of a sampled / unsampled key
	}
	cols := make([]column, len(R))
	total := 0
	for j, b := range R {
		s := d.sketches[b]
		c := column{entries: s.Entries(), order: s.KeyOrder()}
		c.in, c.out = s.ConditioningRanks()
		cols[j] = c
		total += len(c.entries)
	}
	// joined lists, row after row, the columns holding the row's key, each
	// row closed by -1: every entry is listed once, so 2·total bounds it.
	joined := make([]int32, 0, 2*total)
	numRows := 0
	for {
		rowStart := len(joined)
		var lo string
		for j := range cols {
			c := &cols[j]
			if c.next == len(c.order) {
				continue
			}
			key := c.entries[c.order[c.next]].Key
			switch cmp := strings.Compare(key, lo); {
			case len(joined) == rowStart || cmp < 0:
				lo = key
				joined = append(joined[:rowStart], int32(j))
			case cmp == 0:
				joined = append(joined, int32(j))
			}
		}
		if len(joined) == rowStart {
			break // every column is exhausted
		}
		for _, j := range joined[rowStart:] {
			cols[j].next++
		}
		joined = append(joined, -1)
		numRows++
	}

	rows := make([]KeyRow, numRows)
	obs := make([]Obs, numRows*len(R)) // one backing array for all rows
	for j := range cols {
		cols[j].next = 0
	}
	at := 0
	for i := range rows {
		row := obs[i*len(R) : (i+1)*len(R) : (i+1)*len(R)]
		for j := range row {
			row[j] = Obs{Threshold: cols[j].out, Rank: math.Inf(1)}
		}
		for ; joined[at] >= 0; at++ {
			c := &cols[joined[at]]
			e := c.entries[c.order[c.next]]
			c.next++
			rows[i].Key = e.Key
			row[joined[at]] = Obs{Weight: e.Weight, Rank: e.Rank, Threshold: c.in, In: true}
		}
		at++
		rows[i].Obs = row
	}
	return &SampleView{assigner: d.assigner, r: R, rows: rows}
}

// Assignments returns the viewed assignment subset, in view order. The
// slice is shared; callers must not modify it.
func (v *SampleView) Assignments() []int { return v.r }

// NumAssignments returns |R|, the width of every row.
func (v *SampleView) NumAssignments() int { return len(v.r) }

// Rows returns the per-key rows in ascending key order. The slice is
// shared; callers must not modify it.
func (v *SampleView) Rows() []KeyRow { return v.rows }

// Assigner returns the rank assigner the viewed sketches were built with.
func (v *SampleView) Assigner() rank.Assigner { return v.assigner }

// Seed01 returns the known seed u^(b)(key) for the assignment at view
// position j — the hash-derived value the l-set certificates compare
// against (seeds are always known here, which is what enables the
// known-seeds estimators for every key, sampled or not).
func (v *SampleView) Seed01(key string, j int) float64 {
	return v.assigner.Seed01(key, v.r[j])
}

// MinThreshold returns min_j row.Obs[j].Threshold — r^(minR)_k(I∖{key}),
// the union-sketch conditioning value of the s-set templates.
func (row KeyRow) MinThreshold() float64 {
	m := math.Inf(1)
	for _, o := range row.Obs {
		if o.Threshold < m {
			m = o.Threshold
		}
	}
	return m
}
