package obs

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	var n int64 = 42
	r.Counter("cws_widgets_total", "Widgets made.", func() int64 { return n })
	r.GaugeL("cws_peer_state", "Peer state.", Label("peer", "a:1"), func() float64 { return 2 })
	h := r.NewHistogramL("cws_rpc_seconds", "RPC latency.", Label("peer", "a:1"))
	h.Record(100 * time.Microsecond)
	h.Record(100 * time.Microsecond)
	h.Record(50 * time.Millisecond)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, w := range []string{
		"# HELP cws_widgets_total Widgets made.",
		"# TYPE cws_widgets_total counter",
		"cws_widgets_total 42",
		"# TYPE cws_peer_state gauge",
		`cws_peer_state{peer="a:1"} 2`,
		"# TYPE cws_rpc_seconds histogram",
		`cws_rpc_seconds_bucket{peer="a:1",le="+Inf"} 3`,
		`cws_rpc_seconds_count{peer="a:1"} 3`,
	} {
		if !strings.Contains(out, w) {
			t.Fatalf("missing %q in exposition:\n%s", w, out)
		}
	}
	if err := parseExposition(out); err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, out)
	}
	// Cumulative buckets: the two 100µs observations must appear in a
	// bucket before the 50ms one, and the last le bucket equals count.
	if !strings.Contains(out, `le=`) {
		t.Fatal("no le buckets emitted")
	}
}

// parseExposition is a minimal checker for the text format: every
// non-comment line must be `name{labels} value` with a float value, and
// histogram cumulative counts must be non-decreasing per series.
func parseExposition(text string) error {
	cum := map[string]float64{}
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return fmt.Errorf("no value separator in %q", line)
		}
		key, val := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return fmt.Errorf("bad value in %q: %v", line, err)
		}
		if i := strings.Index(key, "_bucket"); i >= 0 {
			series := key[:i] // name without labels: le ordering is per family here
			if v < cum[series] {
				return fmt.Errorf("bucket counts decrease in %q", line)
			}
			cum[series] = v
		}
		if strings.Count(key, "{") != strings.Count(key, "}") {
			return fmt.Errorf("unbalanced braces in %q", key)
		}
	}
	return nil
}

func TestRegistryHandlerContentType(t *testing.T) {
	r := NewRegistry()
	r.Counter("cws_x_total", "X.", func() int64 { return 1 })
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") || !strings.Contains(ct, "0.0.4") {
		t.Fatalf("bad content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "cws_x_total 1") {
		t.Fatalf("body missing metric: %s", rec.Body.String())
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("cws_dup_total", "D.", func() int64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Counter("cws_dup_total", "D.", func() int64 { return 0 })
}

// TestRegisterProcessOnce: the process-wide series register once however
// many layers sharing a registry ask, and render as the CI smoke and the
// scrapers expect; the GC series read runtime/metrics (a forced collection
// makes every one of them nonzero, so a name the runtime does not know —
// read as 0 — fails).
func TestRegisterProcessOnce(t *testing.T) {
	runtime.GC()
	r := NewRegistry()
	r.RegisterProcess(func() int64 { return 7 })
	r.RegisterProcess(func() int64 { return 9 }) // the router sharing the node's registry
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	info := regexp.MustCompile(`(?m)^cws_build_info\{go_version="go[^"]+",revision="[^"]+"\} 1$`)
	if !info.MatchString(out) || !strings.Contains(out, "# TYPE cws_build_info gauge") {
		t.Errorf("no cws_build_info gauge in\n%s", out)
	}
	if !strings.Contains(out, "\ncws_key_order_sorts_total 7\n") || !strings.Contains(out, "# TYPE cws_key_order_sorts_total counter") {
		t.Errorf("cws_key_order_sorts_total is not the first registration's counter in\n%s", out)
	}
	for name, typ := range map[string]string{"cws_go_gc_cycles_total": "counter", "cws_go_gc_cpu_seconds_total": "counter",
		"cws_go_heap_live_bytes": "gauge", "cws_go_heap_goal_bytes": "gauge"} {
		series := regexp.MustCompile(`(?m)^` + name + ` (\S+)$`).FindStringSubmatch(out)
		if series == nil || strings.Count(out, "# TYPE "+name+" "+typ+"\n") != 1 {
			t.Errorf("no single %s %s in\n%s", typ, name, out)
			continue
		}
		if v, err := strconv.ParseFloat(series[1], 64); err != nil || !(v > 0) {
			t.Errorf("%s = %s after a forced GC, want > 0", name, series[1])
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	if got := Label("p", `a"b\c`+"\n"); got != `p="a\"b\\c\n"` {
		t.Fatalf("Label escaping wrong: %s", got)
	}
}
