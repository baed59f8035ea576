package stats

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestSummarizeBasic(t *testing.T) {
	s, err := Summarize([]float64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if s.Count != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Errorf("unexpected summary: %+v", s)
	}
	// Sample std of 1..5 is sqrt(2.5).
	if math.Abs(s.Std-math.Sqrt(2.5)) > 1e-12 {
		t.Errorf("std %v, want %v", s.Std, math.Sqrt(2.5))
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if _, err := Summarize(nil); !errors.Is(err, ErrEmpty) {
		t.Fatalf("expected ErrEmpty, got %v", err)
	}
}

func TestMustSummarizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustSummarize(nil) did not panic")
		}
	}()
	MustSummarize(nil)
}

func TestSummarizeSingle(t *testing.T) {
	s, err := Summarize([]float64{7})
	if err != nil {
		t.Fatal(err)
	}
	if s.Mean != 7 || s.Min != 7 || s.Max != 7 || s.Median != 7 || s.Std != 0 {
		t.Errorf("unexpected single-sample summary: %+v", s)
	}
}

func TestPercentile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1},
		{1, 10},
		{0.5, 5.5},
		{0.25, 3.25},
		{0.9, 9.1},
	}
	for _, tc := range cases {
		if got := Percentile(sorted, tc.p); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("Percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if !math.IsNaN(Percentile(nil, 0.5)) {
		t.Error("Percentile of empty slice should be NaN")
	}
	if Percentile([]float64{3}, 0.7) != 3 {
		t.Error("Percentile of single element should be that element")
	}
}

func TestMeanStd(t *testing.T) {
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
	if Std([]float64{5}) != 0 {
		t.Error("Std of single sample should be 0")
	}
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(xs) != 5 {
		t.Errorf("Mean = %v, want 5", Mean(xs))
	}
	// Sample std with n-1 = sqrt(32/7).
	if math.Abs(Std(xs)-math.Sqrt(32.0/7.0)) > 1e-12 {
		t.Errorf("Std = %v", Std(xs))
	}
}

func TestFitLinearExact(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{3, 5, 7, 9, 11} // y = 1 + 2x
	fit, err := FitLinear(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Intercept-1) > 1e-9 || math.Abs(fit.Slope-2) > 1e-9 {
		t.Errorf("fit = %+v, want intercept 1 slope 2", fit)
	}
	if math.Abs(fit.R2-1) > 1e-9 {
		t.Errorf("R2 = %v, want 1", fit.R2)
	}
}

func TestFitLinearNoisy(t *testing.T) {
	x := []float64{0, 1, 2, 3, 4, 5, 6, 7}
	y := []float64{0.1, 1.9, 4.2, 5.8, 8.1, 9.9, 12.2, 13.8} // roughly y = 2x
	fit, err := FitLinear(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-2) > 0.1 {
		t.Errorf("slope %v, want about 2", fit.Slope)
	}
	if fit.R2 < 0.99 {
		t.Errorf("R2 %v, want near 1", fit.R2)
	}
}

func TestFitLinearErrors(t *testing.T) {
	if _, err := FitLinear([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := FitLinear([]float64{1}, []float64{1}); err == nil {
		t.Error("single point accepted")
	}
	if _, err := FitLinear([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Error("degenerate x accepted")
	}
}

func TestFitLinearConstantY(t *testing.T) {
	fit, err := FitLinear([]float64{1, 2, 3}, []float64{5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if fit.Slope != 0 || fit.Intercept != 5 || fit.R2 != 1 {
		t.Errorf("constant fit = %+v", fit)
	}
}

// Property: the mean always lies between min and max, and the 0th/100th
// percentiles equal min/max.
func TestQuickSummaryBounds(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			// Discard non-finite and extreme values: summing values near
			// MaxFloat64 overflows and is not the regime the harness uses.
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s, err := Summarize(xs)
		if err != nil {
			return false
		}
		return s.Mean >= s.Min-1e-9 && s.Mean <= s.Max+1e-9 &&
			s.Median >= s.Min-1e-9 && s.Median <= s.Max+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: fitting points that lie exactly on a line recovers the line.
func TestQuickFitRecoversLine(t *testing.T) {
	f := func(a, b float64, nRaw uint8) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		if math.Abs(a) > 1e6 || math.Abs(b) > 1e6 {
			return true
		}
		n := int(nRaw%20) + 2
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = float64(i)
			y[i] = a + b*float64(i)
		}
		fit, err := FitLinear(x, y)
		if err != nil {
			return false
		}
		scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
		return math.Abs(fit.Intercept-a) < 1e-6*scale && math.Abs(fit.Slope-b) < 1e-6*scale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
