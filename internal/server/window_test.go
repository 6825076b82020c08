package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"sync"
	"testing"

	"coordsample/internal/cliquery"
	"coordsample/internal/core"
	"coordsample/internal/dataset"
	"coordsample/internal/rank"
	"coordsample/internal/sketch"
	"coordsample/internal/store"
)

// These tests pin the assignment-lazy window state: a window query merges
// only the assignments it reads, each once per window state whatever the
// order or concurrency of the queries, and nothing about that can be told
// from an answer or an exported sketch — the oracle is the eager path this
// replaced, a fresh MergeSets → CombineDispersed → AnswerVia(Direct) over
// offline sketches of the same epochs.

func windowCfg() Config {
	return Config{
		Sample:      core.Config{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 17, K: 48},
		Assignments: 4,
		Retain:      6,
	}
}

// windowStream is a heavy-tailed stream over the four assignments, keys
// distinct across the whole stream.
func windowStream(n int, seed int64) []Offer {
	rng := rand.New(rand.NewSource(seed))
	var offers []Offer
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("host-%05d", i)
		base := math.Exp(rng.NormFloat64() * 2)
		for b := 0; b < 4; b++ {
			if rng.Float64() < 0.8 {
				offers = append(offers, Offer{Assignment: b, Key: key, Weight: base * (0.5 + rng.Float64())})
			}
		}
	}
	return offers
}

// windowServer ingests chunks as one epoch each.
func windowServer(t *testing.T, cfg Config, chunks [][]Offer) (*Server, string) {
	t.Helper()
	s, ts := newTestServer(t, cfg)
	for _, chunk := range chunks {
		postJSON(t, ts.URL+"/offer", map[string]any{"offers": chunk})
		postJSON(t, ts.URL+"/freeze", nil)
	}
	return s, ts.URL
}

// epochSketches sketches one epoch's offers offline.
func epochSketches(cfg Config, offers []Offer) []*sketch.BottomK {
	set := make([]*sketch.BottomK, cfg.Assignments)
	for b := range set {
		sk := core.NewAssignmentSketcher(cfg.Sample, b)
		for _, o := range offers {
			if o.Assignment == b {
				sk.Offer(o.Key, o.Weight)
			}
		}
		set[b] = sk.Sketch()
	}
	return set
}

// eagerWindow is the parent's window state: every assignment merged.
func eagerWindow(t *testing.T, cfg Config, chunks [][]Offer) []*sketch.BottomK {
	t.Helper()
	var sets [][]*sketch.BottomK
	for _, chunk := range chunks {
		sets = append(sets, epochSketches(cfg, chunk))
	}
	merged, err := sketch.MergeSets(sets...)
	if err != nil {
		t.Fatal(err)
	}
	return merged
}

// windowVocabulary is every cliquery aggregate × {all assignments, a pair, a
// single one} × both estimator families as /query parameter strings.
func windowVocabulary() []string {
	var qs []string
	for _, est := range []string{"aw", "discarded"} {
		for _, agg := range []string{"sum&b=0", "sum&b=2", "sum&b=3&prefix=host-000"} {
			qs = append(qs, "agg="+agg+"&est="+est)
		}
		for _, R := range []string{"", "&R=1,3", "&R=2"} {
			for _, agg := range []string{"total", "min", "max", "L1", "lth&l=1", "jaccard"} {
				qs = append(qs, "agg="+agg+R+"&est="+est)
			}
			if R != "&R=2" {
				qs = append(qs, "agg=lth&l=2"+R+"&est="+est, "agg=max&prefix=host-000"+R+"&est="+est)
			}
		}
	}
	return qs
}

// prefixPred is the oracle's subpopulation: a strings.HasPrefix scan of
// every key, independent of the key-run lookup /query answers with.
func prefixPred(prefix string) dataset.Pred {
	if prefix == "" {
		return nil
	}
	return func(key string) bool { return strings.HasPrefix(key, prefix) }
}

// TestWindowDifferential: on windows of one epoch, four epochs and the whole
// ring, and on the whole stream (no epochs=, the snapshot's cumulative
// state), every query of the vocabulary, asked in shuffled orders against
// fresh states, answers float-bit identically (estimate and stderr) to the
// eager oracle over all the input's epochs; and the exported /sketches
// bytes are the encoding of the eagerly merged sketches.
func TestWindowDifferential(t *testing.T) {
	cfg := windowCfg()
	const epochs = 6
	chunks := chunkEpochs(windowStream(1500, 31), epochs)
	windows := [][2]int{{1, 1}, {2, 5}, {1, epochs}, {}} // {}: the whole stream
	vocabulary := windowVocabulary()
	for order := int64(0); order < 3; order++ {
		_, base := windowServer(t, cfg, chunks)
		for _, win := range windows {
			in, epochsParam := chunks, ""
			if win != [2]int{} {
				in, epochsParam = chunks[win[0]-1:win[1]], fmt.Sprintf("&epochs=%d..%d", win[0], win[1])
			}
			eager := eagerWindow(t, cfg, in)
			oracle, err := core.CombineDispersed(cfg.Sample, eager)
			if err != nil {
				t.Fatal(err)
			}
			if order == 0 {
				checkWindowExports(t, cfg, base, epochsParam, eager)
			}
			qs := slices.Clone(vocabulary)
			rand.New(rand.NewSource(order)).Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
			for _, params := range qs {
				values, _ := url.ParseQuery(params)
				p, err := cliquery.ParseHTTPParams(values, cfg.Assignments)
				if err != nil {
					t.Fatal(err)
				}
				_, want, wantSE, err := cliquery.AnswerVia(oracle, p.Agg, p.B, p.R, p.L, prefixPred(p.Prefix), p.Est, cliquery.Direct)
				if err != nil {
					t.Fatal(err)
				}
				code, body := queryHTTPStatus(t, base, params+epochsParam)
				if code != http.StatusOK {
					t.Fatalf("order %d /query?%s%s: status %d: %v", order, params, epochsParam, code, body)
				}
				got, gotSE := body["estimate"].(float64), math.NaN()
				if se, ok := body["stderr"].(float64); ok {
					gotSE = se
				}
				if math.Float64bits(got) != math.Float64bits(want) || math.Float64bits(gotSE) != math.Float64bits(wantSE) {
					t.Errorf("order %d /query?%s%s = %v ± %v, eager oracle %v ± %v", order, params, epochsParam, got, gotSE, want, wantSE)
				}
			}
		}
	}
}

// checkWindowExports compares a fresh window's /sketches (which merges
// every assignment) with the encoding of the eager merge — the bytes the
// parent served.
func checkWindowExports(t *testing.T, cfg Config, base, epochsParam string, eager []*sketch.BottomK) {
	t.Helper()
	path := "/sketches?" + strings.TrimPrefix(epochsParam, "&")
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, err %v: %s", path, resp.StatusCode, err, got)
	}
	var want bytes.Buffer
	if _, err := sketch.EncodeSegment(&want, cfg.Sample.WireMetas(len(eager)), eager); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("GET %s: exported segment differs from the eager merge's encoding", path)
	}
}

// spanNote returns the note of the named span of a ?trace=1 response, and
// whether the span is there.
func spanNote(body map[string]any, name string) (string, bool) {
	tr, _ := body["trace"].(map[string]any)
	spans, _ := tr["spans"].([]any)
	for _, s := range spans {
		if sp := s.(map[string]any); sp["name"] == name {
			note, _ := sp["note"].(string)
			return note, true
		}
	}
	return "", false
}

// TestWindowMergesOnlyWhatQueriesRead: a sum b=0 window query merges exactly
// one assignment, a following R=0,1 query exactly one more, a repeat none,
// /sketches the rest, a total query then none — read from the counter,
// /metrics and the range-merge span's note.
func TestWindowMergesOnlyWhatQueriesRead(t *testing.T) {
	cfg := windowCfg()
	s, base := windowServer(t, cfg, chunkEpochs(windowStream(800, 32), 4))
	for step, c := range []struct {
		path       string
		wantMerged int64
		wantNote   string // "" = no range-merge span at all
	}{
		{"/query?agg=sum&b=0&epochs=2..4&trace=1", 1, "assignments=1/4"},
		{"/query?agg=max&R=0,1&epochs=2..4&trace=1", 2, "assignments=1/4"},
		{"/query?agg=max&R=0,1&epochs=2..4&trace=1", 2, ""},
		{"/query?agg=L1&R=1,0&est=discarded&epochs=2..4&trace=1", 2, ""},
		{"/sketches?epochs=2..4", 4, ""},
		{"/query?agg=total&epochs=2..4&trace=1", 4, ""},
		{"/query?agg=total&epochs=1..4&trace=1", 8, "assignments=4/4"}, // another window, its own state
	} {
		resp, err := http.Get(base + c.path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("step %d GET %s: status %d", step, c.path, resp.StatusCode)
		}
		if strings.HasPrefix(c.path, "/query") {
			note, ok := spanNote(decodeJSONBody(t, resp.Body), "range-merge")
			if ok != (c.wantNote != "") || note != c.wantNote {
				t.Errorf("step %d GET %s: range-merge span present=%t note=%q, want note %q", step, c.path, ok, note, c.wantNote)
			}
		}
		resp.Body.Close()
		if got := s.mergedAssignments.Load(); got != c.wantMerged {
			t.Errorf("step %d after GET %s: %d assignments merged so far, want %d", step, c.path, got, c.wantMerged)
		}
	}
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`cws_merged_assignments_total{site="window"} 8`,
		`cws_merge_conflicts_total{site="window"} 0`,
		`cws_range_queries_total 6`,
		`cws_query_stage_seconds_count{stage="range-merge"} 3`,
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestWindowSpellingsShareOneState: ?epochs=2 and ?epochs=2..2 are one
// window — one state, merged once, answered as "2..2" both times.
func TestWindowSpellingsShareOneState(t *testing.T) {
	s, base := windowServer(t, windowCfg(), chunkEpochs(windowStream(400, 34), 3))
	for _, epochs := range []string{"2", "2..2", " 2 .. 2"} {
		resp, err := http.Get(base + "/query?agg=total&epochs=" + url.QueryEscape(epochs))
		if err != nil {
			t.Fatal(err)
		}
		body := decodeJSONBody(t, resp.Body)
		resp.Body.Close()
		if body["epochs"] != "2..2" {
			t.Fatalf("epochs=%q answered as window %v, want 2..2", epochs, body["epochs"])
		}
	}
	snap := s.snap.Load()
	snap.rangeMu.Lock()
	n := len(snap.ranges)
	snap.rangeMu.Unlock()
	if n != 1 || s.mergedAssignments.Load() != 4 {
		t.Errorf("three spellings of one window: %d window states, %d assignments merged; want 1 and 4", n, s.mergedAssignments.Load())
	}
}

// TestWindowConcurrentQueriesMergeOnce: 32 concurrent queries with
// overlapping assignment sets on one fresh window merge each assignment
// once, and all answer as the serial oracle does.
func TestWindowConcurrentQueriesMergeOnce(t *testing.T) {
	cfg := windowCfg()
	chunks := chunkEpochs(windowStream(1200, 33), 4)
	s, base := windowServer(t, cfg, chunks)
	oracle, err := core.CombineDispersed(cfg.Sample, eagerWindow(t, cfg, chunks[1:]))
	if err != nil {
		t.Fatal(err)
	}
	shapes := []string{"agg=sum&b=0", "agg=max&R=0,1", "agg=L1&R=1,2", "agg=total", "agg=sum&b=3", "agg=min&R=2,3", "agg=jaccard&R=0,3", "agg=sum&b=1"}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(params string) {
			defer wg.Done()
			values, _ := url.ParseQuery(params)
			p, err := cliquery.ParseHTTPParams(values, cfg.Assignments)
			if err != nil {
				t.Error(err)
				return
			}
			_, want, _, err := cliquery.AnswerVia(oracle, p.Agg, p.B, p.R, p.L, prefixPred(p.Prefix), p.Est, cliquery.Direct)
			if err != nil {
				t.Error(err)
				return
			}
			<-start
			resp, err := http.Get(base + "/query?" + params + "&epochs=2..4")
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var body map[string]any
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || resp.StatusCode != http.StatusOK {
				t.Errorf("/query?%s: status %d, err %v, body %v", params, resp.StatusCode, err, body)
				return
			}
			if got := body["estimate"].(float64); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("/query?%s = %v, oracle %v", params, got, want)
			}
		}(shapes[g%len(shapes)])
	}
	close(start)
	wg.Wait()
	if got := s.mergedAssignments.Load(); got != int64(cfg.Assignments) {
		t.Errorf("32 concurrent window queries merged %d assignments, want each of %d once", got, cfg.Assignments)
	}
}

// TestWindowDuplicateKeyIsRefused: a key offered in two epochs whose copies
// the freezes' cumulative merges never saw together — earlier heavy keys
// keep both out of the cumulative sample — survives twice into the merge of
// the window holding both epochs. That merge is refused with 409 naming the
// key and the window, on every endpoint and every time (nothing is kept of
// it), counted and traced; the window's other assignment, every other
// window and the cumulative snapshot keep answering.
func TestWindowDuplicateKeyIsRefused(t *testing.T) {
	cfg := Config{
		Sample:      core.Config{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 5, K: 8},
		Assignments: 2,
		Retain:      4,
	}
	var heavy []Offer
	for i := 0; i < 200; i++ {
		heavy = append(heavy, Offer{Assignment: 0, Key: fmt.Sprintf("heavy-%03d", i), Weight: 1e6})
	}
	s, base := windowServer(t, cfg, [][]Offer{
		heavy,
		{{Assignment: 0, Key: "twice", Weight: 1}, {Assignment: 1, Key: "twice", Weight: 1}},
		{{Assignment: 0, Key: "twice", Weight: 1}, {Assignment: 1, Key: "later", Weight: 2}},
	})
	if got := s.Epoch(); got != 3 {
		t.Fatalf("the freezes caught the duplicate (epoch %d): the stream no longer hides it from the cumulative merge", got)
	}
	status := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v (the handler must answer, not die)", path, err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(data)
	}
	for _, path := range []string{
		"/query?agg=sum&b=0&epochs=2..3", "/query?agg=sum&b=0&epochs=2..3", "/query?agg=L1&epochs=2..3",
		"/sketches?epochs=2..3",
	} {
		code, body := status(path)
		if code != http.StatusConflict || !strings.Contains(body, `\"twice\"`) || !strings.Contains(body, "epochs 2..3") {
			t.Errorf("GET %s: status %d, body %s; want 409 naming the key and the window", path, code, body)
		}
	}
	for _, path := range []string{
		"/query?agg=sum&b=1&epochs=2..3",
		"/query?agg=sum&b=0&epochs=3..3", "/query?agg=L1&epochs=1..2", "/query?agg=L1", "/healthz",
	} {
		if code, body := status(path); code != http.StatusOK {
			t.Errorf("GET %s after the refusals: status %d, body %s", path, code, body)
		}
	}
	if got := s.mergeConflicts.Load(); got != 4 {
		t.Errorf("%d merge conflicts counted, want 4", got)
	}
	_, traces := status("/debug/traces")
	if !strings.Contains(traces, `"name":"range-merge"`) || !strings.Contains(traces, `"note":"assignments=0/2"`) {
		t.Errorf("/debug/traces holds no refused range-merge span: %s", traces)
	}
	_, metrics := status("/metrics")
	if want := `cws_merge_conflicts_total{site="window"} 4`; !strings.Contains(metrics, want) {
		t.Errorf("/metrics missing %q", want)
	}
}

// BenchmarkWindowQueryCold is the node read path's checked-in number: one
// cold /query over a 4-epoch window at the end-to-end benchmark's sketch
// size (k = 1 024, |W| = 8) on a durable node, as the end-to-end benchmark
// runs it, against a fresh window state every iteration — the assignments
// the query reads merged (one, two, all eight), its AW-summary built, the
// predicate scanned. Two key shapes: tie keys (%06d.e%d) agree on their
// first eight bytes across the window's epochs, so every key comparison
// falls back to whole strings; distinct keys are the end-to-end
// benchmark's 13-byte 'k', class, identifier shape, whose first eight
// bytes differ.
func BenchmarkWindowQueryCold(b *testing.B) {
	for _, keys := range []struct {
		name, prefix string
		key          func(i, epoch int) string
	}{
		{"tie", "0001", func(i, epoch int) string { return fmt.Sprintf("%06d.e%d", i, epoch) }},
		{"distinct", "k1", func(i, epoch int) string { return key13(epoch<<20 | i) }},
	} {
		b.Run(keys.name, func(b *testing.B) { windowQueryCold(b, keys.prefix, keys.key) })
	}
}

// key13 is the n-th key of the end-to-end benchmark's shape: 'k', a class
// hex digit and an 11-hex-digit identifier, distinct for distinct n < 2^44.
func key13(n int) string {
	return fmt.Sprintf("k%x%011x", n%16, uint64(n)*0x9e3779b97f4a7c15&(1<<44-1))
}

// queryNode is a durable node at the end-to-end benchmark's sketch size
// (k = 1 024, |W| = 8) holding four frozen epochs of 4k keys each, every key
// offered in every assignment.
func queryNode(tb testing.TB, key func(i, epoch int) string) *Server {
	cfg := Config{
		Sample:      core.Config{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 11, K: 1024},
		Assignments: 8,
		Retain:      4,
	}
	st, err := store.Open(store.Config{Dir: tb.TempDir(), Retain: cfg.Retain, Sample: cfg.Sample, Assignments: cfg.Assignments})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { st.Close() })
	cfg.Store = st
	s, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	for epoch := 0; epoch < 4; epoch++ {
		var offers []Offer
		for i := 0; i < 4*cfg.Sample.K; i++ {
			key := key(i, epoch)
			for a := 0; a < cfg.Assignments; a++ {
				offers = append(offers, Offer{Assignment: a, Key: key, Weight: 1 + float64((i*(a+3))%97)})
			}
		}
		body, err := json.Marshal(map[string]any{"offers": offers})
		if err != nil {
			tb.Fatal(err)
		}
		serveOK(tb, s, http.MethodPost, "/offer", body)
		serveOK(tb, s, http.MethodPost, "/freeze", nil)
	}
	return s
}

// serveOK serves one request in process and fails unless it answers 200.
func serveOK(tb testing.TB, s *Server, method, path string, body []byte) {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		tb.Fatalf("%s %s: status %d: %s", method, path, rec.Code, rec.Body)
	}
}

func windowQueryCold(b *testing.B, prefix string, key func(i, epoch int) string) {
	s := queryNode(b, key)
	snap := s.snap.Load()
	for _, shape := range []struct{ name, params string }{
		{"single", "agg=sum&b=1"}, {"pair", "agg=L1&R=0,7"}, {"all", "agg=L1"},
	} {
		b.Run(shape.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				snap.rangeMu.Lock()
				clear(snap.ranges)
				snap.rangeMu.Unlock()
				serveOK(b, s, http.MethodGet, "/query?"+shape.params+"&prefix="+prefix+"&epochs=1..4", nil)
			}
		})
	}
}

// BenchmarkWindowQueryWarm is the warm counterpart on the same node: one
// cumulative /query whose AW-summary the snapshot already keeps, so an
// iteration is the handler alone — parse, pin, the sum over the prefix's
// key run, encode — with no prefix, a 1/16 prefix (a key class) and a
// 1/256 prefix (a class and one identifier digit).
func BenchmarkWindowQueryWarm(b *testing.B) {
	s := queryNode(b, func(i, epoch int) string { return key13(epoch<<20 | i) })
	for _, prefix := range []struct{ name, param string }{
		{"none", ""}, {"1of16", "&prefix=k3"}, {"1of256", "&prefix=k3a"},
	} {
		b.Run(prefix.name, func(b *testing.B) {
			path := "/query?agg=L1" + prefix.param
			serveOK(b, s, http.MethodGet, path, nil) // builds the summary
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serveOK(b, s, http.MethodGet, path, nil)
			}
		})
	}
}

// TestWarmPrefixQueryAllocations: a warm /query with a prefix allocates no
// more than the same warm query with an empty one (all keys): the prefix
// costs a binary search for its key run, not a predicate. Both carry the
// parameter, whose parse allocates alike whatever its value.
func TestWarmPrefixQueryAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop pooled state at random")
	}
	s, _ := windowServer(t, windowCfg(), chunkEpochs(windowStream(600, 35), 2))
	allocs := func(path string) float64 {
		serveOK(t, s, http.MethodGet, path, nil) // builds the summary
		return testing.AllocsPerRun(20, func() { serveOK(t, s, http.MethodGet, path, nil) })
	}
	for _, q := range []string{"agg=L1", "agg=sum&b=2", "agg=jaccard&R=1,3", "agg=total&est=discarded"} {
		whole, prefixed := allocs("/query?"+q+"&prefix="), allocs("/query?"+q+"&prefix=host-00")
		if prefixed > whole {
			t.Errorf("warm /query?%s: %v allocations with prefix=host-00, %v with none", q, prefixed, whole)
		}
	}
}
