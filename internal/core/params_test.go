package core

import (
	"math"
	"testing"
)

func TestVariantString(t *testing.T) {
	if SAER.String() != "SAER" || RAES.String() != "RAES" {
		t.Error("unexpected variant names")
	}
	if Variant(99).String() == "" {
		t.Error("unknown variant should still produce a name")
	}
}

func TestParamsCapacity(t *testing.T) {
	cases := []struct {
		d    int
		c    float64
		want int
	}{
		{1, 4, 4},
		{2, 4, 8},
		{4, 2.5, 10},
		{3, 1.4, 4},
		{2, 0.4, 0},
	}
	for _, tc := range cases {
		p := Params{D: tc.d, C: tc.c}
		if got := p.Capacity(); got != tc.want {
			t.Errorf("Capacity(d=%d, c=%v) = %d, want %d", tc.d, tc.c, got, tc.want)
		}
	}
}

// TestParamsValidate checks that Config.Validate rejects an invalid
// protocol identity under either variant: the Params a Config carries
// are validated with it.
func TestParamsValidate(t *testing.T) {
	withParams := func(v Variant, p Params) Config {
		return Config{Variant: v, D: p.D, C: p.C, MaxRounds: p.MaxRounds, Seed: p.Seed}
	}
	good := Params{D: 2, C: 4}
	bad := []Params{
		{D: 0, C: 4},
		{D: -1, C: 4},
		{D: 2, C: 0},
		{D: 2, C: -1},
		{D: 2, C: 0.3}, // capacity floor(0.6) = 0
		{D: 2, C: 4, MaxRounds: -1},
	}
	for _, v := range []Variant{SAER, RAES} {
		if err := withParams(v, good).Validate(); err != nil {
			t.Errorf("%v: valid params rejected: %v", v, err)
		}
		for i, p := range bad {
			if err := withParams(v, p).Validate(); err == nil {
				t.Errorf("%v case %d: invalid params accepted: %+v", v, i, p)
			}
		}
	}
}

func TestDefaultMaxRounds(t *testing.T) {
	if DefaultMaxRounds(0) <= 0 || DefaultMaxRounds(1) <= 0 {
		t.Error("degenerate sizes should still get a positive cap")
	}
	small := DefaultMaxRounds(1 << 10)
	large := DefaultMaxRounds(1 << 20)
	if large <= small {
		t.Errorf("cap should grow with n: %d vs %d", small, large)
	}
	// The cap must comfortably exceed the paper's bound.
	if DefaultMaxRounds(1<<10) < 3*CompletionBound(1<<10) {
		t.Error("default cap should exceed the theoretical completion bound")
	}
}

func TestCompletionBound(t *testing.T) {
	if CompletionBound(1) != 1 {
		t.Errorf("CompletionBound(1) = %d", CompletionBound(1))
	}
	if got := CompletionBound(1024); got != 30 {
		t.Errorf("CompletionBound(1024) = %d, want 30 (= 3·log2 1024)", got)
	}
	if CompletionBound(1<<20) != 60 {
		t.Errorf("CompletionBound(2^20) = %d, want 60", CompletionBound(1<<20))
	}
}

func TestMinCRegular(t *testing.T) {
	// For large eta·d the 32 floor dominates.
	if got := MinCRegular(10, 4); got != 32 {
		t.Errorf("MinCRegular(10,4) = %v, want 32", got)
	}
	// For small eta the 288/(eta·d) term dominates.
	if got := MinCRegular(1, 4); got != 72 {
		t.Errorf("MinCRegular(1,4) = %v, want 72", got)
	}
	if !math.IsInf(MinCRegular(0, 4), 1) || !math.IsInf(MinCRegular(1, 0), 1) {
		t.Error("degenerate arguments should give +Inf")
	}
}

func TestMinCAlmostRegular(t *testing.T) {
	// rho scales the 32 term.
	if got := MinCAlmostRegular(10, 2, 4); got != 64 {
		t.Errorf("MinCAlmostRegular(10,2,4) = %v, want 64", got)
	}
	if got := MinCAlmostRegular(1, 1, 4); got != 72 {
		t.Errorf("MinCAlmostRegular(1,1,4) = %v, want 72", got)
	}
	if !math.IsInf(MinCAlmostRegular(0, 1, 2), 1) || !math.IsInf(MinCAlmostRegular(1, 0, 2), 1) {
		t.Error("degenerate arguments should give +Inf")
	}
	// The almost-regular bound can never be below the regular one for rho >= 1.
	for _, eta := range []float64{0.5, 1, 2, 8} {
		for _, rho := range []float64{1, 1.5, 3} {
			if MinCAlmostRegular(eta, rho, 2) < MinCRegular(eta, 2) {
				t.Errorf("almost-regular bound below regular bound for eta=%v rho=%v", eta, rho)
			}
		}
	}
}
