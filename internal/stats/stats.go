// Package stats provides the small statistical toolkit used by the
// experiment harness: summary statistics over repeated trials, percentile
// estimation, and least-squares fits used to check the paper's
// asymptotic claims (completion time against log n, work against n).
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned by operations that require at least one sample.
var ErrEmpty = errors.New("stats: no samples")

// Summary is a one-pass summary of a sample set.
type Summary struct {
	Count  int
	Mean   float64
	Std    float64 // sample standard deviation (n-1 denominator)
	Min    float64
	Max    float64
	Median float64
	P90    float64
	P99    float64
}

// Summarize computes a Summary of xs. It returns ErrEmpty for an empty
// input.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	s := Summary{
		Count: len(xs),
		Min:   math.Inf(1),
		Max:   math.Inf(-1),
	}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	if len(xs) > 1 {
		s.Std = math.Sqrt(ss / float64(len(xs)-1))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Median = Percentile(sorted, 0.5)
	s.P90 = Percentile(sorted, 0.9)
	s.P99 = Percentile(sorted, 0.99)
	return s, nil
}

// MustSummarize is Summarize for callers that have already checked the
// input is non-empty; it panics on an empty slice.
func MustSummarize(xs []float64) Summary {
	s, err := Summarize(xs)
	if err != nil {
		panic(err)
	}
	return s
}

// Percentile returns the p-th percentile (p in [0,1]) of an already sorted
// slice using linear interpolation between the two nearest ranks. It
// returns NaN for an empty slice.
func Percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[n-1]
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Std returns the sample standard deviation (n-1), or 0 for fewer than two
// samples.
func Std(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// LinearFit is the result of an ordinary least-squares fit y = a + b·x.
type LinearFit struct {
	Intercept float64 // a
	Slope     float64 // b
	R2        float64 // coefficient of determination
}

// FitLinear fits y = a + b·x by least squares. It returns an error if
// fewer than two points are given or all x values coincide.
func FitLinear(x, y []float64) (LinearFit, error) {
	if len(x) != len(y) {
		return LinearFit{}, fmt.Errorf("stats: FitLinear length mismatch %d vs %d", len(x), len(y))
	}
	if len(x) < 2 {
		return LinearFit{}, fmt.Errorf("stats: FitLinear needs at least 2 points, got %d", len(x))
	}
	mx := Mean(x)
	my := Mean(y)
	var sxx, sxy, syy float64
	for i := range x {
		dx := x[i] - mx
		dy := y[i] - my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinearFit{}, errors.New("stats: FitLinear degenerate x values")
	}
	b := sxy / sxx
	a := my - b*mx
	r2 := 1.0
	if syy > 0 {
		var ssRes float64
		for i := range x {
			r := y[i] - (a + b*x[i])
			ssRes += r * r
		}
		r2 = 1 - ssRes/syy
	}
	return LinearFit{Intercept: a, Slope: b, R2: r2}, nil
}
