// Package gen is the benchmark's seeded stream generator. It produces the
// keys and weight vectors every workload ingests, encodes them in the
// server's binary /ingest framing, and accumulates the exact value of every
// aggregate the query battery asks for, so each served estimate can be
// compared with the truth. The program under test sees only the generated
// bytes; the seed is a command-line argument of the benchmark.
//
// Keys honour the pre-aggregation contract: every key is generated once per
// run, so each (key, assignment) is offered once. A key is 'k', one class
// hex digit, and an 11-hex-digit identifier, so the predicates prefix=kC
// and prefix=kCD select 1/16 and 1/256 of the population.
package gen

import (
	"math"

	"coordsample/internal/server"
)

// KeyLen is the length of every generated key.
const KeyLen = 13

// Cells is the number of (class, first identifier digit) cells truth is
// kept in: the finest subpopulation a battery predicate selects.
const Cells = 256

// Agg is one aggregate of the query battery.
type Agg int

// The battery's aggregates, in the order of the server's query names.
const (
	Sum Agg = iota
	Total
	Min
	Max
	L1
	Lth // ℓ-th largest with ℓ = 2
	NumAggs
)

// LthL is the ℓ of the battery's "lth" queries.
const LthL = 2

var aggNames = [NumAggs]string{"sum", "total", "min", "max", "L1", "lth"}

// String returns the aggregate's name in the server's query vocabulary.
func (a Agg) String() string { return aggNames[a] }

// NumRSets is the number of assignment subsets the battery queries.
const NumRSets = 3

// RSet returns assignment subset i of w assignments: all of them (nil),
// {0,1}, or {0,w-1}. w must be at least 3 for the three to differ.
func RSet(i, w int) []int {
	switch i {
	case 1:
		return []int{0, 1}
	case 2:
		return []int{0, w - 1}
	}
	return nil
}

// SumB returns the single assignment a "sum" query reads in place of
// subset i: 0, 1, or w-1.
func SumB(i, w int) int { return [NumRSets]int{0, 1, w - 1}[i] }

// Prefix is a battery predicate: no restriction (Level 0), one class
// (Level 1, 1/16 of the keys), or one class and first identifier digit
// (Level 2, 1/256).
type Prefix struct {
	Level        int
	Class, Digit int
}

const hexDigits = "0123456789abcdef"

// String returns the prefix= parameter value; empty for Level 0.
func (p Prefix) String() string {
	switch p.Level {
	case 1:
		return string([]byte{'k', hexDigits[p.Class]})
	case 2:
		return string([]byte{'k', hexDigits[p.Class], hexDigits[p.Digit]})
	}
	return ""
}

// Truth holds the exact value of every battery aggregate over a set of
// keys, per cell. The zero value is the truth of the empty set.
type Truth [Cells]truthRow

func (t *Truth) add(cell int, w []float64) {
	row := &t[cell]
	// Subset 0: all assignments.
	sum, lo, hi, second := 0.0, math.Inf(1), math.Inf(-1), math.Inf(-1)
	for _, x := range w {
		sum += x
		if x < lo {
			lo = x
		}
		if x > hi {
			hi, second = x, hi
		} else if x > second {
			second = x
		}
	}
	row.set(0, w[0], sum, lo, hi, second)
	// Subsets 1 and 2: pairs, where the second largest is the minimum.
	for i := 1; i < NumRSets; i++ {
		a, b := w[0], w[SumB(i, len(w))]
		lo, hi := math.Min(a, b), math.Max(a, b)
		row.set(i, b, a+b, lo, hi, lo)
	}
}

type truthRow [int(NumAggs) * NumRSets]float64

// set adds one key's aggregates over subset i to the row.
func (row *truthRow) set(i int, single, total, lo, hi, second float64) {
	r := row[i*int(NumAggs) : (i+1)*int(NumAggs) : (i+1)*int(NumAggs)]
	r[Sum] += single
	r[Total] += total
	r[Min] += lo
	r[Max] += hi
	r[L1] += hi - lo
	r[Lth] += second
}

// Add accumulates o into t: the truth of the union of two disjoint key sets.
func (t *Truth) Add(o *Truth) {
	for c := range t {
		for j := range t[c] {
			t[c][j] += o[c][j]
		}
	}
}

// Value returns the exact aggregate a over subset rset of the keys p selects.
func (t *Truth) Value(a Agg, rset int, p Prefix) float64 {
	j := rset*int(NumAggs) + int(a)
	switch p.Level {
	case 2:
		return t[p.Class<<4|p.Digit][j]
	case 1:
		v := 0.0
		for d := 0; d < 16; d++ {
			v += t[p.Class<<4|d][j]
		}
		return v
	}
	v := 0.0
	for c := range t {
		v += t[c][j]
	}
	return v
}

// Stream generates one run's keys. It is not safe for concurrent use.
type Stream struct {
	w                  int
	n                  uint64 // keys generated so far
	mul, off, cls, wgt uint64
	epoch              Truth
}

// New returns the stream of the given seed over the given number of weight
// assignments. Equal arguments give equal streams.
func New(seed uint64, assignments int) *Stream {
	return &Stream{
		w:   assignments,
		mul: mix(seed^0x6a09e667f3bcc908) | 1, // odd: i ↦ i·mul+off is a bijection of the 44-bit identifiers
		off: mix(seed ^ 0xbb67ae8584caa73b),
		cls: mix(seed ^ 0x3c6ef372fe94f82b),
		wgt: mix(seed ^ 0xa54ff53a5f1d36f1),
	}
}

// Assignments returns the length of the weight vectors.
func (s *Stream) Assignments() int { return s.w }

// mix is the splitmix64 finalizer, kept apart from the program's own
// hashing so the generated weights cannot correlate with the ranks the
// program derives from the keys.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// unit maps a word to the open interval (0,1).
func unit(x uint64) float64 { return (float64(x>>11) + 0.5) * (1.0 / (1 << 53)) }

// The base weights are Pareto with tail index 1.2: heavy enough that a few
// keys carry much of every sum, which is the regime weighted sampling
// exists for.

// unit32 maps a half word to the open interval (0,1).
func unit32(x uint32) float64 { return (float64(x) + 0.5) * (1.0 / (1 << 32)) }

// Next generates the next key, writes its weight in every assignment to w
// (all positive), adds the key to the current epoch's truth, and returns
// the key and its truth cell. The base weight is Pareto(1.2); each
// assignment scales it by its own factor in [0.25, 1.75), so min, max and
// L1 differ from the sums.
func (s *Stream) Next(w []float64) (key string, cell int) {
	i := s.n
	s.n++
	id := (i*s.mul + s.off) & (1<<44 - 1)
	class := mix(i^s.cls) >> 60
	var buf [KeyLen]byte
	buf[0], buf[1] = 'k', hexDigits[class]
	for j := 0; j < 11; j++ {
		buf[2+j] = hexDigits[(id>>(40-4*j))&15]
	}
	r := mix(i + s.wgt)
	u := unit(r)
	base := 1 / (math.Sqrt(u) * math.Cbrt(u)) // u^(-1/1.2) = u^(-5/6), without math.Pow
	// Each mixed word jitters two assignments, 32 bits each.
	for b := 0; b < s.w; b += 2 {
		r = mix(r + 0x9e3779b97f4a7c15)
		w[b] = base * (0.25 + 1.5*unit32(uint32(r)))
		if b+1 < s.w {
			w[b+1] = base * (0.25 + 1.5*unit32(uint32(r>>32)))
		}
	}
	cell = int(class)<<4 | int(id>>40)
	s.epoch.add(cell, w[:s.w])
	return string(buf[:]), cell
}

// EndEpoch returns the truth of the keys generated since the previous call
// (or since New) and starts the next epoch.
func (s *Stream) EndEpoch() *Truth {
	t := new(Truth)
	*t = s.epoch
	s.epoch = Truth{}
	return t
}

// AppendOffers appends key's offer in every assignment to dst, in the
// server's binary /ingest framing.
func AppendOffers(dst []byte, key string, w []float64) []byte {
	for b, x := range w {
		dst = server.AppendBinaryOffer(dst, b, key, x)
	}
	return dst
}
