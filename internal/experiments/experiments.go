// Package experiments reproduces every table and figure of the paper's
// evaluation (Section 9) on the synthetic datasets of internal/datagen. Each
// experiment is registered under the ID used in DESIGN.md's per-experiment
// index and emits plain-text tables with the same rows/series the paper
// plots. Absolute numbers differ (synthetic data, scaled sizes); the shapes
// — who wins, by how many orders of magnitude, and how gaps evolve with k
// and |R| — are the reproduction targets recorded in EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"io"
	"slices"
	"strings"
)

// Options control dataset scale and measurement effort. Zero values select
// defaults.
type Options struct {
	// Scale multiplies the default dataset sizes (1.0 reproduces the scaled
	// defaults in DESIGN.md; the paper's raw sizes correspond to ~30×).
	Scale float64
	// Runs is the number of sampling repetitions per measured point (the
	// paper uses 25–200).
	Runs int
	// Ks overrides the sample-size sweep.
	Ks []int
	// Seed drives all sampling randomness.
	Seed uint64
}

// WithDefaults fills unset fields.
func (o Options) WithDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Runs <= 0 {
		o.Runs = 25
	}
	if len(o.Ks) == 0 {
		o.Ks = []int{10, 32, 100, 316, 1000}
	}
	if o.Seed == 0 {
		o.Seed = 0xC0FFEE
	}
	return o
}

// Table is one plain-text result table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Write renders the table with aligned columns.
func (t Table) Write(w io.Writer) {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	fmt.Fprintf(w, "## %s\n", t.Title)
	header := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		header[i] = pad(c, widths[i])
	}
	fmt.Fprintln(w, strings.Join(header, "  "))
	for _, row := range t.Rows {
		cells := make([]string, len(row))
		for i, cell := range row {
			cells[i] = pad(cell, widths[i])
		}
		fmt.Fprintln(w, strings.Join(cells, "  "))
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Result is the output of one experiment.
type Result struct {
	Tables []Table
}

// Write renders all tables.
func (r Result) Write(w io.Writer) {
	for _, t := range r.Tables {
		t.Write(w)
	}
}

// Experiment is a registered reproduction target.
type Experiment struct {
	// ID is the registry key (e.g. "fig3", "table2").
	ID string
	// Paper names the reproduced artifact (e.g. "Figure 3").
	Paper string
	// Desc summarizes what is measured.
	Desc string
	// Run executes the experiment.
	Run func(Options) Result
}

var registry []Experiment

func register(e Experiment) {
	registry = append(registry, e)
}

// Registry lists all experiments sorted by ID.
func Registry() []Experiment {
	out := append([]Experiment(nil), registry...)
	slices.SortFunc(out, func(a, b Experiment) int { return strings.Compare(a.ID, b.ID) })
	return out
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// fsci formats a measurement in compact scientific notation.
func fsci(v float64) string { return fmt.Sprintf("%.3e", v) }

// ffix formats a small ratio/index.
func ffix(v float64) string { return fmt.Sprintf("%.4f", v) }

// fint formats an integer-valued float.
func fint(v float64) string { return fmt.Sprintf("%.1f", v) }
