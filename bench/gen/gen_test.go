package gen

import (
	"bytes"
	"math"
	"sort"
	"testing"
	"time"
)

// raceEnabled is set by race_test.go when the race detector, which slows the
// generator several times over, is compiled in.
var raceEnabled bool

func TestSameSeedSameBytes(t *testing.T) {
	stream := func(seed uint64) []byte {
		s := New(seed, 4)
		w := make([]float64, 4)
		var out []byte
		for i := 0; i < 5000; i++ {
			key, _ := s.Next(w)
			out = AppendOffers(out, key, w)
		}
		return out
	}
	if !bytes.Equal(stream(7), stream(7)) {
		t.Fatal("the same seed gave different bytes")
	}
	if bytes.Equal(stream(7), stream(8)) {
		t.Fatal("different seeds gave the same bytes")
	}
}

func TestKeysNeverRepeat(t *testing.T) {
	s := New(3, 4)
	w := make([]float64, 4)
	seen := make(map[string]bool)
	for i := 0; i < 300000; i++ {
		key, cell := s.Next(w)
		if len(key) != KeyLen || key[0] != 'k' {
			t.Fatalf("malformed key %q", key)
		}
		if seen[key] {
			t.Fatalf("key %q generated twice", key)
		}
		seen[key] = true
		if want := (Prefix{Level: 2, Class: cell >> 4, Digit: cell & 15}).String(); key[:3] != want {
			t.Fatalf("key %q is not in the cell %q it was counted in", key, want)
		}
		for _, x := range w {
			if !(x > 0) || math.IsInf(x, 0) {
				t.Fatalf("weight %v of key %q is not positive and finite", x, key)
			}
		}
	}
}

// TestTruthIsBruteForce recomputes every battery aggregate over 10 000 keys
// from the keys and weights themselves.
func TestTruthIsBruteForce(t *testing.T) {
	const n, w = 10000, 5
	s := New(11, w)
	type kv struct {
		key string
		w   []float64
	}
	var all []kv
	for i := 0; i < n; i++ {
		wv := make([]float64, w)
		key, _ := s.Next(wv)
		all = append(all, kv{key, wv})
	}
	truth := s.EndEpoch()
	if again := s.EndEpoch(); again.Value(Total, 0, Prefix{}) != 0 {
		t.Fatal("EndEpoch did not start a new epoch")
	}
	brute := func(a Agg, rset int, p Prefix) float64 {
		sum := 0.0
		for _, e := range all {
			if pre := p.String(); len(pre) > 0 && e.key[:len(pre)] != pre {
				continue
			}
			vec := e.w
			if R := RSet(rset, w); R != nil {
				vec = []float64{e.w[R[0]], e.w[R[1]]}
			}
			sorted := append([]float64(nil), vec...)
			sort.Float64s(sorted)
			total := 0.0
			for _, x := range vec {
				total += x
			}
			lo, hi := sorted[0], sorted[len(sorted)-1]
			switch a {
			case Sum:
				sum += e.w[SumB(rset, w)]
			case Total:
				sum += total
			case Min:
				sum += lo
			case Max:
				sum += hi
			case L1:
				sum += hi - lo
			case Lth:
				sum += sorted[len(sorted)-LthL]
			}
		}
		return sum
	}
	for a := Agg(0); a < NumAggs; a++ {
		for rset := 0; rset < NumRSets; rset++ {
			for _, p := range []Prefix{{}, {Level: 1, Class: 9}, {Level: 2, Class: 4, Digit: 13}} {
				got, want := truth.Value(a, rset, p), brute(a, rset, p)
				if math.Abs(got-want) > 1e-9*math.Abs(want) {
					t.Errorf("%v over subset %d under %q: truth %v, brute force %v", a, rset, p.String(), got, want)
				}
			}
		}
	}
	if v := truth.Value(L1, 0, Prefix{}); !(v > 0) {
		t.Errorf("L1 over all assignments is %v: the weight vectors do not differ", v)
	}
}

// TestGeneratorSpeed keeps generation cheap beside what it feeds: at most
// 35 ns per offer at 8 assignments. The per-key part is fixed, so at 4
// assignments the allowance is 45 ns.
func TestGeneratorSpeed(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("timing test")
	}
	for _, c := range []struct {
		w     int
		limit float64
	}{{8, 35}, {4, 45}} {
		best := math.Inf(1)
		for try := 0; try < 5; try++ {
			s := New(uint64(try), c.w)
			w := make([]float64, c.w)
			var buf []byte
			const keys = 200000
			t0 := time.Now()
			for i := 0; i < keys; i++ {
				key, _ := s.Next(w)
				buf = AppendOffers(buf[:0], key, w)
			}
			best = math.Min(best, float64(time.Since(t0).Nanoseconds())/float64(keys*c.w))
		}
		if best > c.limit {
			t.Errorf("%d assignments: %.1f ns per offer, limit %.0f", c.w, best, c.limit)
		}
	}
}
