package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"coordsample"
)

// TestServerSketchExportAcceptedByMerge closes the loop between the online
// and offline halves of the system: the segment a live cws-serve process
// exports (GET /sketches) is an ordinary fingerprinted sketch file, so
// cws-merge must verify, combine, and query it — and, because both
// binaries share the cliquery dispatch and deterministic summation, print
// answers bit-identical to the ones the server gives over HTTP.
func TestServerSketchExportAcceptedByMerge(t *testing.T) {
	cfg := coordsample.Config{Family: coordsample.IPPS, Mode: coordsample.SharedSeed, Seed: 5, K: 64}
	srv, err := coordsample.NewServer(coordsample.ServerConfig{
		Sample:      cfg,
		Assignments: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Ingest a deterministic stream and freeze (two epochs, to prove the
	// export is the cumulative merged sketch).
	rng := rand.New(rand.NewSource(17))
	for epoch := 0; epoch < 2; epoch++ {
		var sb strings.Builder
		sb.WriteString(`{"offers":[`)
		for i := 0; i < 400; i++ {
			key := fmt.Sprintf("flow-%d-%04d", epoch, i)
			for b := 0; b < 2; b++ {
				if i > 0 || b > 0 {
					sb.WriteString(",")
				}
				fmt.Fprintf(&sb, `{"assignment":%d,"key":%q,"weight":%g}`, b, key, math.Exp(rng.NormFloat64()))
			}
		}
		sb.WriteString(`]}`)
		resp, err := http.Post(ts.URL+"/offer", "application/json", strings.NewReader(sb.String()))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("offer: status %d", resp.StatusCode)
		}
		resp, err = http.Post(ts.URL+"/freeze", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("freeze: status %d", resp.StatusCode)
		}
	}

	// Download every assignment's sketch as one file:
	// curl …/sketches > live.cws.
	resp, err := http.Get(ts.URL + "/sketches")
	if err != nil {
		t.Fatal(err)
	}
	data := new(bytes.Buffer)
	if _, err := data.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	files := []string{filepath.Join(t.TempDir(), "live.cws")}
	if err := os.WriteFile(files[0], data.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	// The one-assignment route is gone.
	if resp, err := http.Get(ts.URL + "/sketch?b=0"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /sketch: status %d, want 404", resp.StatusCode)
	}

	// The server's own HTTP answer for each query...
	serverAnswer := func(params string) string {
		resp, err := http.Get(ts.URL + "/query?" + params)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body := new(bytes.Buffer)
		body.ReadFrom(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %s: status %d: %s", params, resp.StatusCode, body)
		}
		// Extract the estimate field textually: the JSON number is the
		// shortest exact float64 representation, the same text %v prints,
		// so string comparison proves bit-identity.
		s := body.String()
		const marker = `"estimate":`
		i := strings.Index(s, marker)
		if i < 0 {
			t.Fatalf("query %s: no estimate in %s", params, s)
		}
		rest := s[i+len(marker):]
		if j := strings.IndexAny(rest, ",}"); j >= 0 {
			rest = rest[:j]
		}
		return strings.TrimSpace(rest)
	}

	// ...must appear verbatim in cws-merge's output over the exported files.
	for _, q := range []struct {
		mergeArgs []string
		params    string
	}{
		{[]string{"-query", "L1"}, "agg=L1"},
		{[]string{"-query", "max"}, "agg=max"},
		{[]string{"-query", "min"}, "agg=min"},
		{[]string{"-query", "lth", "-l", "2"}, "agg=lth&l=2"},
		{[]string{"-query", "sum", "-b", "1", "-prefix", "flow-0-"}, "agg=sum&b=1&prefix=flow-0-"},
	} {
		var buf bytes.Buffer
		if err := run(append(q.mergeArgs, files...), &buf); err != nil {
			t.Fatalf("cws-merge %v over server exports: %v", q.mergeArgs, err)
		}
		want := serverAnswer(q.params)
		if !strings.Contains(buf.String(), "= "+want+" ") {
			t.Fatalf("cws-merge %v printed %q; server answered %s (must be bit-identical)",
				q.mergeArgs, buf.String(), want)
		}
	}
}
