package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Trace records named spans for one request. All methods are nil-safe so
// the untraced path pays a single pointer compare: handlers hold a *Trace
// that is nil unless the client asked for tracing or a ring is attached.
//
// Spans may be added from multiple goroutines (the cluster router records
// per-peer spans from its scatter workers).
type Trace struct {
	ID    uint64
	Op    string
	began time.Time

	mu    sync.Mutex
	spans []Span
}

// Span is one timed stage inside a trace. Start is the offset from the
// beginning of the trace.
type Span struct {
	Name    string  `json:"name"`
	StartUs float64 `json:"start_us"`
	DurUs   float64 `json:"dur_us"`
	// Note says why the span was what it was, where the name alone does not
	// ("not-modified" on a peer fetch answered 304); usually empty.
	Note string `json:"note,omitempty"`
}

// NewTrace starts a trace clock. Op is a short human label for the
// request ("query agg=l1 est=aw").
func NewTrace(id uint64, op string) *Trace {
	return &Trace{ID: id, Op: op, began: time.Now()}
}

// SpanTimer measures one span; obtain via Trace.Start, finish with End.
type SpanTimer struct {
	t     *Trace
	name  string
	start time.Time
}

// Start begins a span. Safe on a nil trace (End is then a no-op).
func (t *Trace) Start(name string) SpanTimer {
	if t == nil {
		return SpanTimer{}
	}
	return SpanTimer{t: t, name: name, start: time.Now()}
}

// End closes the span and appends it to the trace.
func (st SpanTimer) End() {
	if st.t == nil {
		return
	}
	st.t.Add(st.name, st.start, time.Since(st.start))
}

// Add appends a span measured externally (e.g. on another goroutine).
// Safe on a nil trace.
func (t *Trace) Add(name string, start time.Time, d time.Duration) {
	t.AddNote(name, "", start, d)
}

// AddNote is Add with the span's Note set.
func (t *Trace) AddNote(name, note string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	sp := Span{
		Name:    name,
		StartUs: float64(start.Sub(t.began)) / 1e3,
		DurUs:   float64(d) / 1e3,
		Note:    note,
	}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// Report is the JSON-facing form of a finished trace.
type Report struct {
	ID      uint64    `json:"id"`
	Op      string    `json:"op"`
	Start   time.Time `json:"start"`
	TotalUs float64   `json:"total_us"`
	Spans   []Span    `json:"spans"`
}

// Report finalizes the trace. Safe on a nil trace (returns a zero Report).
func (t *Trace) Report() Report {
	if t == nil {
		return Report{}
	}
	t.mu.Lock()
	spans := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	return Report{
		ID:      t.ID,
		Op:      t.Op,
		Start:   t.began,
		TotalUs: float64(time.Since(t.began)) / 1e3,
		Spans:   spans,
	}
}

// QueryStageMetric is the histogram family of the cold query path's stages:
// a node's range-merge and summarize, the router's cluster-merge and
// cluster-summarize.
const (
	QueryStageMetric = "cws_query_stage_seconds"
	QueryStageHelp   = "Cold query path stage latency: window merge and AW-summary build, on a node and on the cluster router."
)

// RecordStages feeds the duration of every span whose name has a histogram
// in stages into it, so stage costs show on /metrics without ?trace=1. A
// nil map records nothing.
func (rep Report) RecordStages(stages map[string]*Histogram) {
	for _, sp := range rep.Spans {
		if h := stages[sp.Name]; h != nil {
			h.Record(time.Duration(sp.DurUs * 1e3))
		}
	}
}

// TraceRing keeps the last capacity trace reports in memory. All methods
// are nil-safe so components can thread an optional ring without checks.
type TraceRing struct {
	nextID atomic.Uint64

	mu   sync.Mutex
	buf  []Report
	next int
	full bool
}

// NewTraceRing returns a ring holding up to capacity reports.
func NewTraceRing(capacity int) *TraceRing {
	if capacity < 1 {
		capacity = 1
	}
	return &TraceRing{buf: make([]Report, capacity)}
}

// NextID allocates a process-unique trace ID. Safe on a nil ring.
func (r *TraceRing) NextID() uint64 {
	if r == nil {
		return 0
	}
	return r.nextID.Add(1)
}

// Add stores a finished report, evicting the oldest. Safe on a nil ring.
func (r *TraceRing) Add(rep Report) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.buf[r.next] = rep
	r.next = (r.next + 1) % len(r.buf)
	if r.next == 0 {
		r.full = true
	}
	r.mu.Unlock()
}

// Reports returns the retained traces, newest first. Safe on a nil ring.
func (r *TraceRing) Reports() []Report {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	if r.full {
		n = len(r.buf)
	}
	out := make([]Report, 0, n)
	for i := 0; i < n; i++ {
		// Walk backwards from the most recently written slot.
		idx := (r.next - 1 - i + len(r.buf)) % len(r.buf)
		out = append(out, r.buf[idx])
	}
	return out
}
