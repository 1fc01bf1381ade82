package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs (0 < p ≤ 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p/100*float64(len(s)) - 1e-9)) // p/100 is inexact
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// tailLevels are the percentiles a tail figure may be reported at,
// highest first.
var tailLevels = []float64{99.9, 99, 90, 50}

// tail is a latency distribution summarized the way the benchmark
// reports timings: the median, and the highest percentile the sample
// supports — the highest level with at least ten samples beyond it.
type tail struct {
	N     int     // samples
	P50   float64 // median
	Level float64 // highest supported percentile level (0: none)
	Value float64 // the percentile at Level
}

// summarize computes xs's tail summary.
func summarize(xs []float64) tail {
	t := tail{N: len(xs), P50: median(xs)}
	for _, lvl := range tailLevels {
		if float64(len(xs))*(1-lvl/100) >= 10-1e-9 {
			t.Level, t.Value = lvl, percentile(xs, lvl)
			break
		}
	}
	return t
}

// supports reports whether the sample carries at least ten samples
// beyond the lvl-th percentile.
func (t tail) supports(lvl float64) bool { return t.Level >= lvl }

// geomean is the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// pearson is the Pearson correlation of paired samples.
func pearson(xs, ys []float64) float64 {
	n := float64(len(xs))
	if n == 0 || len(ys) != len(xs) {
		return 0
	}
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	mx /= n
	my /= n
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}
