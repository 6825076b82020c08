// Package csvio reads and writes the CSV interchange format shared by the
// command-line tools: a header "key,<assignment>,<assignment>,..." followed
// by one row per key with its weight in each assignment. It exists so the
// format logic is tested once and the binaries stay thin.
package csvio

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"

	"coordsample/internal/dataset"
)

// Header is the mandatory first column name.
const Header = "key"

// Row is one parsed record: a key and its per-assignment weights.
type Row struct {
	Key     string
	Weights []float64
}

// Reader streams rows from a dataset CSV.
type Reader struct {
	cr    *csv.Reader
	names []string
	line  int
}

// NewReader parses the header and returns a streaming reader.
func NewReader(r io.Reader) (*Reader, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("csvio: reading header: %w", err)
	}
	if len(header) < 2 || header[0] != Header {
		return nil, fmt.Errorf("csvio: header must be %q,<assignment>,...; got %v", Header, header)
	}
	return &Reader{cr: cr, names: append([]string(nil), header[1:]...), line: 1}, nil
}

// AssignmentNames returns the assignment labels from the header.
func (r *Reader) AssignmentNames() []string { return r.names }

// Next returns the next row, or io.EOF at the end of input. The returned
// Row's Weights slice is reused across calls; copy it to retain.
func (r *Reader) Next() (Row, error) {
	rec, err := r.cr.Read()
	if err == io.EOF {
		return Row{}, io.EOF
	}
	if err != nil {
		return Row{}, fmt.Errorf("csvio: line %d: %w", r.line+1, err)
	}
	r.line++
	if len(rec) != len(r.names)+1 {
		return Row{}, fmt.Errorf("csvio: line %d: %d fields, want %d", r.line, len(rec), len(r.names)+1)
	}
	row := Row{Key: rec[0], Weights: make([]float64, len(r.names))}
	for b := range r.names {
		w, err := strconv.ParseFloat(rec[b+1], 64)
		if err != nil {
			return Row{}, fmt.Errorf("csvio: line %d: bad weight %q: %w", r.line, rec[b+1], err)
		}
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return Row{}, fmt.Errorf("csvio: line %d: invalid weight %v (want finite and ≥ 0)", r.line, w)
		}
		row.Weights[b] = w
	}
	return row, nil
}

// ReadDataset materializes an entire CSV into a Dataset. Duplicate keys
// accumulate, matching the aggregation semantics of dataset.Builder.
func ReadDataset(r io.Reader) (*dataset.Dataset, error) {
	cr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	bld := dataset.NewBuilder(cr.AssignmentNames()...)
	for {
		row, err := cr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		for b, w := range row.Weights {
			if w > 0 {
				bld.Add(b, row.Key, w)
			}
		}
	}
	return bld.Build(), nil
}

// WriteDataset emits a Dataset in the interchange format.
func WriteDataset(w io.Writer, ds *dataset.Dataset) error {
	cw := csv.NewWriter(w)
	header := append([]string{Header}, ds.AssignmentNames()...)
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("csvio: %w", err)
	}
	rec := make([]string, ds.NumAssignments()+1)
	for i := 0; i < ds.NumKeys(); i++ {
		rec[0] = ds.Key(i)
		for b := 0; b < ds.NumAssignments(); b++ {
			rec[b+1] = strconv.FormatFloat(ds.Weight(b, i), 'g', -1, 64)
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("csvio: %w", err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("csvio: %w", err)
	}
	return nil
}
