package analysis

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/rng"
)

func TestGammaSequenceFirstTerms(t *testing.T) {
	// With c = 32: γ_0 = 1, γ_1 = 2/32·γ_0 = 1/16,
	// γ_2 = 2/32·(γ_0 + γ_0·γ_1) = (1 + 1/16)/16 = 17/256.
	g := GammaSequence(32, 2)
	if len(g) != 3 {
		t.Fatalf("expected 3 terms, got %d", len(g))
	}
	if g[0] != 1 {
		t.Errorf("gamma_0 = %v, want 1", g[0])
	}
	if math.Abs(g[1]-1.0/16) > 1e-12 {
		t.Errorf("gamma_1 = %v, want 1/16", g[1])
	}
	if math.Abs(g[2]-17.0/256) > 1e-12 {
		t.Errorf("gamma_2 = %v, want 17/256", g[2])
	}
}

func TestGammaSequenceLemma12Properties(t *testing.T) {
	// Lemma 12: for 2/c <= 1/α², the sequence from γ_1 on is increasing,
	// bounded by 1/α, and the prefix products are bounded by α^{-t}.
	for _, c := range []float64{8, 32, 64, 200} {
		alpha := AlphaFor(c)
		gamma := GammaSequence(c, 40)
		for tIdx := 2; tIdx < len(gamma); tIdx++ {
			if gamma[tIdx] < gamma[tIdx-1]-1e-15 {
				t.Errorf("c=%v: gamma not increasing at t=%d", c, tIdx)
			}
		}
		for tIdx := 1; tIdx < len(gamma); tIdx++ {
			if gamma[tIdx] > 1/alpha+1e-12 {
				t.Errorf("c=%v: gamma_%d = %v exceeds 1/alpha = %v", c, tIdx, gamma[tIdx], 1/alpha)
			}
		}
		// Lemma 12 bounds the prefix products for t > 1 (at t = 1 the product
		// is the single factor γ_0 = 1).
		prods := GammaProducts(gamma)
		for tIdx := 2; tIdx < len(prods); tIdx++ {
			bound := math.Pow(alpha, -float64(tIdx))
			if prods[tIdx] > bound+1e-12 {
				t.Errorf("c=%v: product at t=%d is %v, exceeds alpha^-t = %v", c, tIdx, prods[tIdx], bound)
			}
		}
	}
}

func TestGammaSequenceAlmostRegular(t *testing.T) {
	// With rho = 1 the two sequences coincide.
	a := GammaSequence(32, 10)
	b := GammaSequenceAlmostRegular(32, 1, 10)
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-15 {
			t.Fatalf("rho=1 sequences differ at %d: %v vs %v", i, a[i], b[i])
		}
	}
	// With rho > 1 the sequence is pointwise at least as large.
	c := GammaSequenceAlmostRegular(64, 2, 10)
	d := GammaSequence(64, 10)
	for i := 1; i < len(c); i++ {
		if c[i] < d[i]-1e-15 {
			t.Errorf("rho=2 sequence smaller at %d", i)
		}
	}
}

func TestGammaSequenceNegativeRounds(t *testing.T) {
	g := GammaSequence(32, -5)
	if len(g) != 1 || g[0] != 1 {
		t.Errorf("negative rounds should return just gamma_0, got %v", g)
	}
}

func TestGammaProducts(t *testing.T) {
	gamma := []float64{1, 0.5, 0.25}
	prods := GammaProducts(gamma)
	want := []float64{1, 1, 0.5}
	for i := range want {
		if math.Abs(prods[i]-want[i]) > 1e-15 {
			t.Errorf("product[%d] = %v, want %v", i, prods[i], want[i])
		}
	}
}

func TestAlphaFor(t *testing.T) {
	if AlphaFor(32) != 4 {
		t.Errorf("AlphaFor(32) = %v, want 4", AlphaFor(32))
	}
	if AlphaFor(2) != 2 {
		t.Errorf("AlphaFor(2) = %v, want 2 (floor)", AlphaFor(2))
	}
	if AlphaFor(-1) != 2 {
		t.Errorf("AlphaFor(-1) = %v, want 2", AlphaFor(-1))
	}
	if math.Abs(AlphaFor(128)-8) > 1e-12 {
		t.Errorf("AlphaFor(128) = %v, want 8", AlphaFor(128))
	}
}

func TestStageOneHorizon(t *testing.T) {
	n := 1 << 14
	delta := 200 // ≈ log² n
	horizon, bound := StageOneHorizon(32, 2, delta, n)
	if horizon <= 0 {
		t.Fatalf("horizon = %d, want positive", horizon)
	}
	// d·∆ = 400 ≈ 3.4·(12 log n); one or two rounds of α=4 decay suffice.
	if horizon > 5 {
		t.Errorf("horizon %d unexpectedly large", horizon)
	}
	if bound < 0 {
		t.Errorf("bound %v negative", bound)
	}
	// Degenerate inputs.
	if h, _ := StageOneHorizon(32, 0, delta, n); h != 0 {
		t.Error("degenerate d should yield 0")
	}
	if h, _ := StageOneHorizon(32, 2, delta, 1); h != 0 {
		t.Error("degenerate n should yield 0")
	}
}

func TestStageOneHorizonLargeDelta(t *testing.T) {
	// With a dense graph (∆ = n/2) the horizon grows like log(d∆/log n),
	// still far below the completion bound.
	n := 1 << 12
	horizon, bound := StageOneHorizon(32, 4, n/2, n)
	if horizon == 0 {
		t.Fatal("horizon should be positive for dense graphs")
	}
	if float64(horizon) > 2*bound+3 {
		t.Errorf("measured horizon %d is far above the lemma bound %v", horizon, bound)
	}
}

func TestDeltaSequence(t *testing.T) {
	n := 1 << 12
	delta := 70
	seq := DeltaSequence(34, 2, delta, n, 3, 10)
	if len(seq) != 8 {
		t.Fatalf("expected 8 terms, got %d", len(seq))
	}
	logn := math.Log2(float64(n))
	want0 := 0.25 + 24*3*logn/(34*2*float64(delta))
	if math.Abs(seq[0]-want0) > 1e-12 {
		t.Errorf("delta_3 = %v, want %v", seq[0], want0)
	}
	for i := 1; i < len(seq); i++ {
		if seq[i] < seq[i-1] {
			t.Error("delta sequence should be non-decreasing in t")
		}
	}
	if DeltaSequence(34, 2, delta, n, 5, 4) != nil {
		t.Error("empty range should return nil")
	}
}

func TestDeltaSequenceStaysBelowHalfWithPaperC(t *testing.T) {
	// For c ≥ 288/(η·d) and t ≤ 3 log n, the paper argues δ_t ≤ 1/2.
	n := 1 << 14
	logn := math.Log2(float64(n))
	eta := 1.0
	delta := int(math.Ceil(eta * logn * logn))
	d := 2
	c := core.MinCRegular(eta, d)
	horizon := 3 * int(math.Ceil(math.Log2(float64(n))))
	seq := DeltaSequence(c, d, delta, n, 1, horizon)
	for i, v := range seq {
		if v > 0.5+1e-9 {
			t.Errorf("delta at t=%d is %v > 1/2 with the paper's c", i+1, v)
		}
	}
}

func TestCheckTheorem1OnRealRun(t *testing.T) {
	g, err := gen.Regular(2048, 60, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Config{Variant: core.SAER, D: 2, C: 8, Seed: 5, TrackNeighborhoods: true}.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	rep := CheckTheorem1(res)
	if !rep.Completed {
		t.Fatal("run did not complete")
	}
	if !rep.WithinLoadBound {
		t.Error("load bound violated")
	}
	if !rep.WithinCompletionBound {
		t.Errorf("completion bound violated: %d rounds vs bound %d", rep.Rounds, rep.CompletionBoundRounds)
	}
	if !rep.BurnedFractionTracked {
		// Tracking was on; the flag may legitimately stay false only when
		// no server ever burned and K_t stayed at zero, which cannot happen
		// since requests were sent.
		t.Error("burned fraction should have been tracked")
	}
	if !rep.BurnedFractionBelowHalf {
		t.Errorf("burned fraction %v above 1/2", rep.MaxBurnedFraction)
	}
	if rep.String() == "" {
		t.Error("empty report string")
	}
}

func TestCheckTheorem1WithoutTracking(t *testing.T) {
	g, err := gen.Regular(512, 30, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Config{Variant: core.SAER, D: 2, C: 4, Seed: 1}.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	rep := CheckTheorem1(res)
	if rep.BurnedFractionTracked {
		t.Error("tracking flag set without per-round data")
	}
	if rep.String() == "" {
		t.Error("empty report string")
	}
}

func TestAliveDecayRespectsBound(t *testing.T) {
	// Construct a synthetic series respecting the 4/5 decay.
	mk := func(vals ...int) []core.RoundStats {
		out := make([]core.RoundStats, len(vals))
		for i, v := range vals {
			out[i] = core.RoundStats{Round: i + 1, AliveBalls: v}
		}
		return out
	}
	good := mk(1000, 700, 400, 200, 50, 10, 1)
	if r := AliveDecayRespectsBound(good, 500, 2); r != 0 {
		t.Errorf("good series flagged at round %d", r)
	}
	// A series that stalls above the threshold violates the bound.
	bad := mk(1000, 990, 985)
	if r := AliveDecayRespectsBound(bad, 500, 2); r == 0 {
		t.Error("stalling series not flagged")
	}
	// Below the n·d/log n threshold, stalling is allowed.
	lowTail := mk(1000, 700, 100, 95, 94, 94)
	if r := AliveDecayRespectsBound(lowTail, 500, 2); r != 0 {
		t.Errorf("series flagged at round %d although below threshold", r)
	}
	if AliveDecayRespectsBound(nil, 500, 2) != 0 {
		t.Error("empty series should pass")
	}
}

// Property: for any c >= 8 the gamma prefix products decay monotonically to
// zero and stay within (0, 1].
func TestQuickGammaProductsDecay(t *testing.T) {
	f := func(cRaw uint8) bool {
		c := 8 + float64(cRaw%200)
		gamma := GammaSequence(c, 30)
		prods := GammaProducts(gamma)
		for i := 1; i < len(prods); i++ {
			if prods[i] <= 0 || prods[i] > prods[i-1]+1e-15 || prods[i] > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
