// Package obstest reads a Prometheus text scrape in tests.
package obstest

import (
	"bufio"
	"net/http"
	"strconv"
	"strings"
	"testing"
)

// Scrape fetches base+"/metrics" and returns every sample keyed by its
// series as written: `name` or `name{labels}`.
func Scrape(t testing.TB, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	m := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || line[0] == '#' {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("/metrics line %q: %v", line, err)
		}
		m[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return m
}
