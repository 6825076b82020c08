package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"coordsample/internal/rank"
	"coordsample/internal/sketch"
)

// ship encodes assignment b's sketch as the one-sketch segment cws-sketch
// -out writes and decodes it back, simulating the process boundary.
func ship(t *testing.T, cfg Config, b int, s *sketch.BottomK) *sketch.Decoded {
	t.Helper()
	var buf bytes.Buffer
	meta := sketch.WireMeta{Family: cfg.Family, Mode: cfg.Mode, Seed: cfg.Seed, Assignment: b}
	if _, err := sketch.EncodeSegment(&buf, []sketch.WireMeta{meta}, []*sketch.BottomK{s}); err != nil {
		t.Fatal(err)
	}
	decoded, err := sketch.DecodeSegment(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return decoded[0]
}

// TestCombineDecodedBitIdentical is the acceptance criterion: sketches
// shipped through the wire, merged, and queried in a "combiner process"
// must answer bit-identically to the in-process SummarizeDispersed
// pipeline over the same data — including shard sketches per assignment.
func TestCombineDecodedBitIdentical(t *testing.T) {
	ds := synthData(500, 2, 7)
	cfg := Config{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 13, K: 64}
	inProcess := SummarizeDispersed(cfg, ds)

	// Each assignment sketched at its own "site", then shipped.
	siteSketches := make([]*sketch.BottomK, 2)
	for b := 0; b < 2; b++ {
		sk := NewAssignmentSketcher(cfg, b)
		col := ds.Column(b)
		for i := 0; i < ds.NumKeys(); i++ {
			if col[i] > 0 {
				sk.Offer(ds.Key(i), col[i])
			}
		}
		siteSketches[b] = sk.Sketch()
	}
	shipped, err := CombineDecoded([]*sketch.Decoded{ship(t, cfg, 0, siteSketches[0]), ship(t, cfg, 1, siteSketches[1])})
	if err != nil {
		t.Fatal(err)
	}

	pred := func(key string) bool { return key[len(key)-1] == '3' }
	checks := []struct {
		name      string
		got, want float64
	}{
		{"single", shipped.Single(0).Estimate(nil), inProcess.Single(0).Estimate(nil)},
		{"max", shipped.Max(nil).Estimate(nil), inProcess.Max(nil).Estimate(nil)},
		{"min", shipped.MinLSet(nil).Estimate(nil), inProcess.MinLSet(nil).Estimate(nil)},
		{"L1", shipped.RangeLSet(nil).Estimate(nil), inProcess.RangeLSet(nil).Estimate(nil)},
		{"L1-pred", shipped.RangeLSet(nil).Estimate(pred), inProcess.RangeLSet(nil).Estimate(pred)},
		{"2nd-largest", shipped.LthLargest(nil, 2).Estimate(nil), inProcess.LthLargest(nil, 2).Estimate(nil)},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Fatalf("%s: shipped %v != in-process %v (must be bit-identical)", c.name, c.got, c.want)
		}
	}
}

// TestCombineDecodedMergesShards: two shard files per assignment (as two
// sites sketching disjoint halves of one assignment would write) merge to
// the exact whole-assignment sketch.
func TestCombineDecodedMergesShards(t *testing.T) {
	ds := synthData(400, 2, 9)
	cfg := Config{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 5, K: 32}
	inProcess := SummarizeDispersed(cfg, ds)

	var decoded []*sketch.Decoded
	for b := 0; b < 2; b++ {
		halves := []*AssignmentSketcher{NewAssignmentSketcher(cfg, b), NewAssignmentSketcher(cfg, b)}
		col := ds.Column(b)
		for i := 0; i < ds.NumKeys(); i++ {
			if col[i] > 0 {
				halves[i%2].Offer(ds.Key(i), col[i])
			}
		}
		for _, h := range halves {
			decoded = append(decoded, ship(t, cfg, b, h.Sketch()))
		}
	}
	// File order must not matter.
	decoded[0], decoded[3] = decoded[3], decoded[0]
	shipped, err := CombineDecoded(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := shipped.RangeLSet(nil).Estimate(nil), inProcess.RangeLSet(nil).Estimate(nil); got != want {
		t.Fatalf("shard-merged L1 %v != in-process %v", got, want)
	}
}

// TestCombineDecodedRejectsMismatches is the loud-failure direction of the
// acceptance criterion, for every deviating parameter.
func TestCombineDecodedRejectsMismatches(t *testing.T) {
	ds := synthData(300, 1, 11)
	base := Config{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 5, K: 32}
	build := func(cfg Config, b int) *sketch.Decoded {
		sk := NewAssignmentSketcher(cfg, b)
		col := ds.Column(0)
		for i := 0; i < ds.NumKeys(); i++ {
			if col[i] > 0 {
				sk.Offer(ds.Key(i), col[i])
			}
		}
		return ship(t, cfg, b, sk.Sketch())
	}
	good := build(base, 0)

	// Cross-assignment coordination conflicts: typed CoordinationMismatchError.
	var coordErr *CoordinationMismatchError
	for name, cfg := range map[string]Config{
		"seed":   {Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 6, K: 32},
		"family": {Family: rank.EXP, Mode: rank.SharedSeed, Seed: 5, K: 32},
		"mode":   {Family: rank.IPPS, Mode: rank.Independent, Seed: 5, K: 32},
	} {
		_, err := CombineDecoded([]*sketch.Decoded{good, build(cfg, 1)})
		if !errors.As(err, &coordErr) {
			t.Fatalf("%s mismatch: got %v, want *CoordinationMismatchError", name, err)
		}
	}

	// Same-assignment shard conflicts (different K, or different seed with
	// everything else equal): typed FingerprintMismatchError.
	var fpErr *sketch.FingerprintMismatchError
	diffK := base
	diffK.K = 64
	if _, err := CombineDecoded([]*sketch.Decoded{good, build(diffK, 0)}); !errors.As(err, &fpErr) {
		t.Fatalf("shard K mismatch: got %v, want *FingerprintMismatchError", err)
	}

	// Missing assignment coverage.
	if _, err := CombineDecoded([]*sketch.Decoded{good, build(base, 2)}); err == nil {
		t.Fatal("gap in assignment coverage not rejected")
	}
}

// TestCombineDecodedFingerprintIndex: a shard that disagrees with the
// first sketch of its assignment is reported by its position among the
// decoded inputs, as a coordination mismatch is, not by its position in
// its assignment's shard group.
func TestCombineDecodedFingerprintIndex(t *testing.T) {
	a := Config{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 5, K: 128}
	b := a
	b.K = 64
	shipped := func(cfg Config, asg int) *sketch.Decoded {
		sk := NewAssignmentSketcher(cfg, asg)
		for i := 0; i < 300; i++ {
			sk.Offer(itoa(asg)+"-"+itoa(i), 1+float64(i%7))
		}
		return ship(t, cfg, asg, sk.Sketch())
	}
	var fpErr *sketch.FingerprintMismatchError
	_, err := CombineDecoded([]*sketch.Decoded{shipped(a, 0), shipped(a, 1), shipped(b, 0)})
	if !errors.As(err, &fpErr) {
		t.Fatalf("got %v, want *FingerprintMismatchError", err)
	}
	if fpErr.Index != 2 {
		t.Fatalf("Index = %d, want 2 (the input's position)", fpErr.Index)
	}
}

// TestCombineDispersedRejectsMismatchedSketch: the in-process combiner
// rejects a fingerprinted sketch built under a different configuration.
func TestCombineDispersedRejectsMismatchedSketch(t *testing.T) {
	ds := synthData(300, 2, 13)
	cfg := Config{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 5, K: 32}
	other := cfg
	other.Seed = 99

	okSketch := NewAssignmentSketcher(cfg, 0)
	badSketch := NewAssignmentSketcher(other, 1) // wrong seed
	swapped := NewAssignmentSketcher(cfg, 1)     // right config for b=1
	for i := 0; i < ds.NumKeys(); i++ {
		if w := ds.Weight(0, i); w > 0 {
			okSketch.Offer(ds.Key(i), w)
		}
		if w := ds.Weight(1, i); w > 0 {
			badSketch.Offer(ds.Key(i), w)
			swapped.Offer(ds.Key(i), w)
		}
	}

	var fpErr *sketch.FingerprintMismatchError
	if _, err := CombineDispersed(cfg, []*sketch.BottomK{okSketch.Sketch(), badSketch.Sketch()}); !errors.As(err, &fpErr) {
		t.Fatalf("wrong-seed sketch: got %v, want *FingerprintMismatchError", err)
	} else if fpErr.Index != 1 {
		t.Fatalf("offending index %d, want 1", fpErr.Index)
	}
	// Sketches in the wrong assignment slot are caught too.
	if _, err := CombineDispersed(cfg, []*sketch.BottomK{swapped.Sketch(), okSketch.Sketch()}); !errors.As(err, &fpErr) {
		t.Fatalf("swapped assignment order: got %v, want *FingerprintMismatchError", err)
	}
	// The correct order passes.
	if _, err := CombineDispersed(cfg, []*sketch.BottomK{okSketch.Sketch(), swapped.Sketch()}); err != nil {
		t.Fatalf("well-formed combine rejected: %v", err)
	}
}

// TestCombineDispersedPoissonRejectsMismatch mirrors the bottom-k check
// for the Poisson pipeline.
func TestCombineDispersedPoissonRejectsMismatch(t *testing.T) {
	ds := synthData(300, 2, 17)
	cfg := Config{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 5, K: 16}
	other := cfg
	other.Seed = 99

	tau0 := PoissonTau(cfg.Family, ds.Column(0), float64(cfg.K))
	tau1 := PoissonTau(cfg.Family, ds.Column(1), float64(cfg.K))
	ok0 := NewPoissonSketcher(cfg, 0, tau0)
	bad1 := NewPoissonSketcher(other, 1, tau1)
	for i := 0; i < ds.NumKeys(); i++ {
		if w := ds.Weight(0, i); w > 0 {
			ok0.Offer(ds.Key(i), w)
		}
		if w := ds.Weight(1, i); w > 0 {
			bad1.Offer(ds.Key(i), w)
		}
	}
	var fpErr *sketch.FingerprintMismatchError
	if _, err := CombineDispersedPoisson(cfg, []*sketch.Poisson{ok0.Sketch(), bad1.Sketch()}); !errors.As(err, &fpErr) {
		t.Fatalf("wrong-seed Poisson sketch: got %v, want *FingerprintMismatchError", err)
	}
}

// TestCombineDecodedRejectsHugeAssignmentGap: a single file claiming a
// large assignment index must be rejected by the coverage check before
// any index-sized allocation happens.
func TestCombineDecodedRejectsHugeAssignmentGap(t *testing.T) {
	cfg := Config{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 5, K: 8}
	big := 1 << 30
	sk := NewAssignmentSketcher(cfg, big)
	sk.Offer("a", 1)
	if _, err := CombineDecoded([]*sketch.Decoded{ship(t, cfg, big, sk.Sketch())}); err == nil {
		t.Fatal("uncoverable assignment index accepted")
	}
}

// TestCombineDecodedRejectsOverlappingShardFiles: listing the same shard
// file twice (the overlapping-glob mistake) must produce an error, not
// the in-process duplicate-key panic.
func TestCombineDecodedRejectsOverlappingShardFiles(t *testing.T) {
	cfg := Config{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: 5, K: 8}
	sk := NewAssignmentSketcher(cfg, 0)
	for i := 0; i < 50; i++ {
		sk.Offer("k"+itoa(i), 1+float64(i))
	}
	_, err := CombineDecoded([]*sketch.Decoded{ship(t, cfg, 0, sk.Sketch()), ship(t, cfg, 0, sk.Sketch())})
	if err == nil || !strings.Contains(err.Error(), "disjoint") {
		t.Fatalf("overlapping shard files: got %v, want disjointness error", err)
	}
}
