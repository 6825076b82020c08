package obs

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"sync"
)

// Registry collects metric families and renders them in the Prometheus
// text exposition format (version 0.0.4). It is instance-scoped — nothing
// is registered into process globals — and safe for concurrent use.
//
// Counters and gauges are function-backed: the registry stores a closure
// and samples it at scrape time, so existing atomic counters and struct
// fields can be exposed without double bookkeeping.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
	process  sync.Once // RegisterProcess
}

type family struct {
	name   string
	help   string
	typ    string // "counter", "gauge", "histogram"
	series []series
}

type series struct {
	labels  string // rendered label pairs without braces, e.g. `peer="x:1"`
	intFn   func() int64
	floatFn func() float64
	hist    *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

func (r *Registry) add(name, help, typ, labels string, s series) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ}
		r.byName[name] = f
		r.families = append(r.families, f)
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as both %s and %s", name, f.typ, typ))
	}
	for _, existing := range f.series {
		if existing.labels == labels {
			panic(fmt.Sprintf("obs: duplicate series %s{%s}", name, labels))
		}
	}
	s.labels = labels
	f.series = append(f.series, s)
}

// Counter registers a function-backed counter with no labels.
func (r *Registry) Counter(name, help string, fn func() int64) {
	r.add(name, help, "counter", "", series{intFn: fn})
}

// CounterL registers a function-backed counter with rendered label pairs
// (e.g. `peer="127.0.0.1:9001"` — no surrounding braces).
func (r *Registry) CounterL(name, help, labels string, fn func() int64) {
	r.add(name, help, "counter", labels, series{intFn: fn})
}

// Gauge registers a function-backed gauge with no labels.
func (r *Registry) Gauge(name, help string, fn func() float64) {
	r.add(name, help, "gauge", "", series{floatFn: fn})
}

// GaugeL registers a function-backed gauge with rendered label pairs.
func (r *Registry) GaugeL(name, help, labels string, fn func() float64) {
	r.add(name, help, "gauge", labels, series{floatFn: fn})
}

// NewHistogram creates, registers, and returns a histogram with no labels.
func (r *Registry) NewHistogram(name, help string) *Histogram {
	h := &Histogram{}
	r.add(name, help, "histogram", "", series{hist: h})
	return h
}

// NewHistogramL creates, registers, and returns a histogram with rendered
// label pairs.
func (r *Registry) NewHistogramL(name, help, labels string) *Histogram {
	h := &Histogram{}
	r.add(name, help, "histogram", labels, series{hist: h})
	return h
}

// RegisterHistogram attaches an existing histogram (e.g. one owned by the
// store) under a name and label set.
func (r *Registry) RegisterHistogram(name, help, labels string, h *Histogram) {
	r.add(name, help, "histogram", labels, series{hist: h})
}

// RegisterProcess registers the process's own series once per registry (a
// node and the router sharing it both call it): cws_build_info{go_version,
// revision}, always 1, cws_key_order_sorts_total from keyOrderSorts, and
// the collector's work, read from runtime/metrics at scrape time.
func (r *Registry) RegisterProcess(keyOrderSorts func() int64) {
	r.process.Do(func() {
		goVersion, revision := runtime.Version(), "unknown"
		if bi, ok := debug.ReadBuildInfo(); ok {
			for _, s := range bi.Settings {
				if s.Key == "vcs.revision" {
					revision = s.Value
				}
			}
		}
		r.GaugeL("cws_build_info", "Build of the serving binary: its Go version and VCS revision (\"unknown\" when built outside a checkout); always 1.",
			Label("go_version", goVersion)+","+Label("revision", revision), func() float64 { return 1 })
		r.Counter("cws_key_order_sorts_total", "Sketch key orders sorted on first use: samples no segment decode, merge or segment encode handed one. Flat across queries once a durable node's ring is full.", keyOrderSorts)
		r.Counter("cws_go_gc_cycles_total", "Completed GC cycles (runtime/metrics /gc/cycles/total:gc-cycles).",
			func() int64 { return int64(runtimeMetric("/gc/cycles/total:gc-cycles")) })
		r.add("cws_go_gc_cpu_seconds_total", "CPU time the GC spent, an estimate updated at each cycle (runtime/metrics /cpu/classes/gc/total:cpu-seconds).", "counter", "",
			series{floatFn: func() float64 { return runtimeMetric("/cpu/classes/gc/total:cpu-seconds") }})
		r.Gauge("cws_go_heap_live_bytes", "Heap bytes the last GC marked live (runtime/metrics /gc/heap/live:bytes).",
			func() float64 { return runtimeMetric("/gc/heap/live:bytes") })
		r.Gauge("cws_go_heap_goal_bytes", "Heap size at which the next GC starts (runtime/metrics /gc/heap/goal:bytes).",
			func() float64 { return runtimeMetric("/gc/heap/goal:bytes") })
	})
}

// runtimeMetric reads one uint64 or float64 runtime/metrics sample.
func runtimeMetric(name string) float64 {
	sample := []metrics.Sample{{Name: name}}
	metrics.Read(sample)
	switch v := sample[0].Value; v.Kind() {
	case metrics.KindUint64:
		return float64(v.Uint64())
	case metrics.KindFloat64:
		return v.Float64()
	}
	return 0 // metrics.KindBad: a name this Go release does not know
}

// Label renders one label pair, escaping the value per the exposition
// format (backslash, double quote, newline).
func Label(key, value string) string {
	out := make([]byte, 0, len(key)+len(value)+3)
	out = append(out, key...)
	out = append(out, '=', '"')
	for i := 0; i < len(value); i++ {
		switch c := value[i]; c {
		case '\\', '"':
			out = append(out, '\\', c)
		case '\n':
			out = append(out, '\\', 'n')
		default:
			out = append(out, c)
		}
	}
	out = append(out, '"')
	return string(out)
}

func wrapLabels(labels, extra string) string {
	switch {
	case labels == "" && extra == "":
		return ""
	case labels == "":
		return "{" + extra + "}"
	case extra == "":
		return "{" + labels + "}"
	}
	return "{" + labels + "," + extra + "}"
}

// WritePrometheus renders every registered family in registration order.
// Histograms emit cumulative le buckets in seconds (only buckets that
// contain observations, plus +Inf), _sum in seconds, and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, len(r.families))
	copy(fams, r.families)
	// Series slices are append-only; copy headers so rendering can run
	// outside the lock.
	snap := make([][]series, len(fams))
	for i, f := range fams {
		snap[i] = append([]series(nil), f.series...)
	}
	r.mu.Unlock()

	for i, f := range fams {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ); err != nil {
			return err
		}
		// Stable output: sort series by label string within a family.
		ser := snap[i]
		sort.SliceStable(ser, func(a, b int) bool { return ser[a].labels < ser[b].labels })
		for _, s := range ser {
			var err error
			switch {
			case s.hist != nil:
				err = writeHistogram(w, f.name, s.labels, s.hist)
			case s.intFn != nil:
				_, err = fmt.Fprintf(w, "%s%s %d\n", f.name, wrapLabels(s.labels, ""), s.intFn())
			case s.floatFn != nil:
				_, err = fmt.Fprintf(w, "%s%s %s\n", f.name, wrapLabels(s.labels, ""),
					strconv.FormatFloat(s.floatFn(), 'g', -1, 64))
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

func writeHistogram(w io.Writer, name, labels string, h *Histogram) error {
	s := h.Snapshot()
	var cum uint64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		cum += c
		le := strconv.FormatFloat(float64(BucketUpper(i))/1e9, 'g', -1, 64)
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			name, wrapLabels(labels, Label("le", le)), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
		name, wrapLabels(labels, `le="+Inf"`), s.Count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, wrapLabels(labels, ""),
		strconv.FormatFloat(float64(s.Sum)/1e9, 'g', -1, 64)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, wrapLabels(labels, ""), s.Count)
	return err
}

// Handler returns an http.Handler serving the exposition text.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
