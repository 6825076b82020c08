// Package trace is the benchmark's tracer: spans and counts recorded at
// layer boundaries from outside the program, kept in memory and written out
// when the benchmark ends. A span has a name, a start, an end, the span
// that caused it, and the identifier shared by all spans of one request.
package trace

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval. Parent is the index of the span that caused
// it, -1 for a root. Times are nanoseconds since the tracer was created.
type Span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Request uint64 `json:"request"`
}

// Tracer collects spans and counts. A nil *Tracer records nothing, so the
// untraced run pays one pointer comparison per boundary.
type Tracer struct {
	began time.Time

	mu     sync.Mutex
	spans  []Span
	counts map[string]int64
}

// New returns an empty tracer.
func New() *Tracer { return &Tracer{began: time.Now(), counts: make(map[string]int64)} }

// Begin opens a span and returns its index, to be passed to End and to
// Begin as the parent of the spans it causes. On a nil tracer it returns -1.
func (t *Tracer) Begin(name string, parent int, request uint64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.began).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{Name: name, StartNs: now, Parent: parent, Request: request})
	return len(t.spans) - 1
}

// End closes the span Begin returned.
func (t *Tracer) End(span int) {
	if t == nil {
		return
	}
	now := time.Since(t.began).Nanoseconds()
	t.mu.Lock()
	t.spans[span].EndNs = now
	t.mu.Unlock()
}

// Add records a span that is already over — it began at start and took d —
// and returns its index.
func (t *Tracer) Add(name string, parent int, start time.Time, d time.Duration) int {
	if t == nil {
		return -1
	}
	from := start.Sub(t.began).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{Name: name, StartNs: from, EndNs: from + d.Nanoseconds(), Parent: parent})
	return len(t.spans) - 1
}

// Count adds n to the named count, taken at the same boundary as a span so
// that a ratio is measured where the work happens.
func (t *Tracer) Count(name string, n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

// Layer is the per-name summary of a trace: how many spans, their total
// time, and their self time — the total minus the part their child spans
// cover.
type Layer struct {
	Name    string `json:"name"`
	Spans   int    `json:"spans"`
	TotalNs int64  `json:"total_ns"`
	SelfNs  int64  `json:"self_ns"`
}

// Layers summarises the closed spans by name, sorted by name.
func (t *Tracer) Layers() []Layer {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 && s.EndNs > 0 {
			child[s.Parent] += s.EndNs - s.StartNs
		}
	}
	byName := make(map[string]*Layer)
	for i, s := range t.spans {
		if s.EndNs == 0 {
			continue
		}
		l := byName[s.Name]
		if l == nil {
			l = &Layer{Name: s.Name}
			byName[s.Name] = l
		}
		d := s.EndNs - s.StartNs
		l.Spans++
		l.TotalNs += d
		l.SelfNs += d - child[i]
	}
	out := make([]Layer, 0, len(byName))
	for _, l := range byName {
		out = append(out, *l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// WriteFile writes the layer summary, the counts and every span to path as
// one JSON document, creating the directory if need be.
func (t *Tracer) WriteFile(path string, header any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	layers := t.Layers()
	t.mu.Lock()
	doc := struct {
		Header any              `json:"header"`
		Layers []Layer          `json:"layers"`
		Counts map[string]int64 `json:"counts"`
		Spans  []Span           `json:"spans"`
	}{header, layers, t.counts, t.spans}
	data, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
