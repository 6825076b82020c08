package csvio

import (
	"io"
	"math/rand"
	"strings"
	"testing"

	"coordsample/internal/dataset"
)

func TestRoundTrip(t *testing.T) {
	bld := dataset.NewBuilder("bytes", "packets")
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		key := "key-" + itoa(i)
		if rng.Float64() < 0.8 {
			bld.Add(0, key, float64(rng.Intn(100000)))
		}
		if rng.Float64() < 0.8 {
			bld.Add(1, key, float64(rng.Intn(1000)))
		}
	}
	ds := bld.Build()

	var sb strings.Builder
	if err := WriteDataset(&sb, ds); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDataset(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.NumAssignments() != 2 {
		t.Fatalf("assignments = %d", back.NumAssignments())
	}
	names := back.AssignmentNames()
	if names[0] != "bytes" || names[1] != "packets" {
		t.Fatalf("names = %v", names)
	}
	for i := 0; i < ds.NumKeys(); i++ {
		key := ds.Key(i)
		for b := 0; b < 2; b++ {
			if got, want := back.WeightByKey(b, key), ds.Weight(b, i); got != want {
				t.Fatalf("%s b=%d: %v != %v", key, b, got, want)
			}
		}
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [20]byte
	pos := len(buf)
	for i > 0 {
		pos--
		buf[pos] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[pos:])
}

func TestReaderStreaming(t *testing.T) {
	in := "key,a,b\nx,1,2\ny,3,0\n"
	r, err := NewReader(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.AssignmentNames(); len(got) != 2 || got[0] != "a" {
		t.Fatalf("names = %v", got)
	}
	row, err := r.Next()
	if err != nil || row.Key != "x" || row.Weights[0] != 1 || row.Weights[1] != 2 {
		t.Fatalf("row1 = %+v, %v", row, err)
	}
	row, err = r.Next()
	if err != nil || row.Key != "y" || row.Weights[1] != 0 {
		t.Fatalf("row2 = %+v, %v", row, err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestReaderErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"bad header", "id,a\nx,1\n"},
		{"single column", "key\nx\n"},
		{"field count", "key,a,b\nx,1\n"},
		{"bad weight", "key,a\nx,zzz\n"},
		{"negative weight", "key,a\nx,-5\n"},
	}
	for _, c := range cases {
		_, err := ReadDataset(strings.NewReader(c.in))
		if err == nil {
			t.Fatalf("%s: expected error", c.name)
		}
	}
}

// TestReaderRefusesNonFiniteWeights: NaN and infinite weights are refused
// with their line number, as negative ones are, rather than passed on for
// a sketcher to drop without a word.
func TestReaderRefusesNonFiniteWeights(t *testing.T) {
	for _, w := range []string{"NaN", "nan", "Inf", "+Inf", "-Inf", "infinity", "-5"} {
		_, err := ReadDataset(strings.NewReader("key,a,b\nz,3,4\nx," + w + ",1\n"))
		if err == nil || !strings.Contains(err.Error(), "line 3: invalid weight") {
			t.Errorf("weight %s: error %v, want line 3's invalid weight", w, err)
		}
	}
}

func TestDuplicateKeysAccumulate(t *testing.T) {
	ds, err := ReadDataset(strings.NewReader("key,a\nx,1\nx,2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got := ds.WeightByKey(0, "x"); got != 3 {
		t.Fatalf("accumulated = %v, want 3", got)
	}
}
