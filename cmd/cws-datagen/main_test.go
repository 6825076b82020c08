package main

import (
	"math"
	"strings"
	"testing"
)

// TestBuildRefusesBadScale: a scale that is not a positive finite number
// is refused, for every dataset, instead of clamping each size to 1 and
// emitting a one-row dataset.
func TestBuildRefusesBadScale(t *testing.T) {
	for _, name := range []string{"ip1", "ip2", "netflix", "stocks"} {
		for _, scale := range []float64{0, -1, math.NaN(), math.Inf(1)} {
			if _, err := build(name, "destIP", "bytes", "high", scale, 0); err == nil || !strings.Contains(err.Error(), "-scale") {
				t.Fatalf("%s at scale %v: error %v, want a -scale error", name, scale, err)
			}
		}
	}
}

func TestBuildSmallScale(t *testing.T) {
	ds, err := build("ip1", "destIP", "bytes", "high", 0.01, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumKeys() < 2 {
		t.Fatalf("scale 0.01 built %d keys", ds.NumKeys())
	}
}
