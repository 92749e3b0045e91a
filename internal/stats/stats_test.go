package stats

import (
	"math"
	"testing"
)

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("empty mean not 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Fatalf("mean %g", got)
	}
}

func TestGeoMean(t *testing.T) {
	if GeoMean(nil) != 0 {
		t.Fatal("empty geomean not 0")
	}
	if got := GeoMean([]float64{1, 4}); math.Abs(got-2) > 1e-12 {
		t.Fatalf("geomean %g, want 2", got)
	}
	// Non-positive entries skipped.
	if got := GeoMean([]float64{0, -3, 8, 2}); math.Abs(got-4) > 1e-12 {
		t.Fatalf("geomean with junk %g, want 4", got)
	}
}
