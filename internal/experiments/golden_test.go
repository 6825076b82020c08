package experiments

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
)

// goldenPath pins every registered experiment's tables at two settings, in
// the layout cws-bench prints with its timing lines dropped. Regenerate it
// (only when a table is meant to change) from the repository root with
//
//	(go run ./cmd/cws-bench -run all -scale 0.04 -runs 6 -ks 10,40 -seed 7 &&
//	 go run ./cmd/cws-bench -run all -scale 0.05 -runs 6 -seed 23) |
//	 grep -v ' completed in ' > internal/experiments/testdata/tables.golden
const goldenPath = "testdata/tables.golden"

// TestExperimentTablesGolden holds every table cell for cell, so a change
// to a seed formula, a repetition order or an estimator shows up here even
// when the qualitative shape tests still pass.
func TestExperimentTablesGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Go fuses multiply-adds on arm64, ppc64 and s390x, which can move
		// the last printed digit; the file was rendered on amd64.
		t.Skipf("golden tables are pinned on amd64, not %s", runtime.GOARCH)
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, opts := range []Options{tinyOpts(), {Scale: 0.05, Runs: 6, Seed: 23}} {
		for _, e := range Registry() {
			fmt.Fprintf(&sb, "=== %s (%s) ===\n%s\n\n", e.ID, e.Paper, e.Desc)
			e.Run(opts).Write(&sb)
			sb.WriteString("\n")
		}
	}
	if sb.String() == string(want) {
		return
	}
	got, wantLines := strings.Split(sb.String(), "\n"), strings.Split(string(want), "\n")
	for i := range min(len(got), len(wantLines)) {
		if got[i] != wantLines[i] {
			t.Fatalf("%s line %d:\n got %q\nwant %q", goldenPath, i+1, got[i], wantLines[i])
		}
	}
	t.Fatalf("%s: rendered %d lines, want %d", goldenPath, len(got), len(wantLines))
}
