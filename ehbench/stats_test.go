package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: the helpers must sort
	}
	return xs
}

// The tail summary reports the highest percentile with at least ten
// samples beyond it, and the sample count it rests on.
func TestSummarizeTailLevel(t *testing.T) {
	for _, c := range []struct {
		n     int
		level float64
		value float64
	}{
		{10000, 99.9, 9990},
		{1000, 99, 990},
		{999, 90, 900},
		{100, 90, 90},
		{99, 50, 50},
		{20, 50, 10},
		{19, 0, 0},
		{0, 0, 0},
	} {
		got := summarize(seq(c.n))
		if got.N != c.n || got.Level != c.level || got.Value != c.value {
			t.Errorf("n=%d: got level %g value %g (n=%d), want level %g value %g", c.n, got.Level, got.Value, got.N, c.level, c.value)
		}
		if got.supports(99) != (c.level >= 99) {
			t.Errorf("n=%d: supports(99) = %v", c.n, got.supports(99))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(200)
	for _, c := range []struct{ p, want float64 }{{50, 100}, {99, 198}, {100, 200}, {0.1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if median([]float64{3, 1, 2, 4}) != 2.5 || median([]float64{5, 1, 3}) != 3 {
		t.Error("median")
	}
}

func TestGeomeanPearson(t *testing.T) {
	if g := geomean([]float64{1, 4, 16}); math.Abs(g-4) > 1e-12 {
		t.Errorf("geomean = %g", g)
	}
	if r := pearson([]float64{1, 2, 3}, []float64{2, 4, 6}); math.Abs(r-1) > 1e-12 {
		t.Errorf("pearson = %g", r)
	}
	if r := pearson([]float64{1, 2, 3}, []float64{3, 2, 1}); math.Abs(r+1) > 1e-12 {
		t.Errorf("pearson = %g", r)
	}
}
