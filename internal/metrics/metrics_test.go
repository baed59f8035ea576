package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/rng"
)

func TestAnalyzeLoadsUniform(t *testing.T) {
	loads := []int{3, 3, 3, 3}
	d := AnalyzeLoads(loads)
	if d.Max != 3 || d.Min != 3 || d.Mean != 3 || d.Std != 0 {
		t.Errorf("uniform loads mis-summarized: %+v", d)
	}
	if math.Abs(d.Imbalance-1) > 1e-12 {
		t.Errorf("imbalance %v, want 1", d.Imbalance)
	}
	if math.Abs(d.Gini) > 1e-12 {
		t.Errorf("gini %v, want 0", d.Gini)
	}
	if d.EmptyServers != 0 {
		t.Errorf("empty servers %d, want 0", d.EmptyServers)
	}
	if d.Histogram[3] != 4 {
		t.Errorf("histogram %v", d.Histogram)
	}
}

func TestAnalyzeLoadsSkewed(t *testing.T) {
	// All load on one server out of four.
	loads := []int{8, 0, 0, 0}
	d := AnalyzeLoads(loads)
	if d.Max != 8 || d.Min != 0 || d.Mean != 2 {
		t.Errorf("skewed loads mis-summarized: %+v", d)
	}
	if math.Abs(d.Imbalance-4) > 1e-12 {
		t.Errorf("imbalance %v, want 4", d.Imbalance)
	}
	// Gini for all-on-one with n=4 is (n-1)/n = 0.75.
	if math.Abs(d.Gini-0.75) > 1e-12 {
		t.Errorf("gini %v, want 0.75", d.Gini)
	}
	if d.EmptyServers != 3 {
		t.Errorf("empty servers %d, want 3", d.EmptyServers)
	}
}

func TestAnalyzeLoadsEmpty(t *testing.T) {
	d := AnalyzeLoads(nil)
	if d.Servers != 0 || d.Max != 0 || d.Gini != 0 {
		t.Errorf("empty loads mis-summarized: %+v", d)
	}
	allZero := AnalyzeLoads([]int{0, 0})
	if allZero.Gini != 0 || allZero.Imbalance != 0 {
		t.Errorf("all-zero loads mis-summarized: %+v", allZero)
	}
	if d.String() == "" || allZero.String() == "" {
		t.Error("empty String output")
	}
}

func runTrials(t *testing.T, trials int, track bool) []*core.Result {
	t.Helper()
	g, err := gen.Regular(512, 30, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*core.Result, 0, trials)
	for i := 0; i < trials; i++ {
		res, err := core.Config{Variant: core.SAER, D: 2, C: 4, Seed: uint64(100 + i), TrackNeighborhoods: track}.Run(g)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, res)
	}
	return out
}

func TestAggregate(t *testing.T) {
	results := runTrials(t, 5, false)
	agg := Aggregate(results)
	if agg.Trials != 5 {
		t.Errorf("trials %d, want 5", agg.Trials)
	}
	if agg.SuccessRate != 1 {
		t.Errorf("success rate %v, want 1", agg.SuccessRate)
	}
	if agg.Rounds.Mean <= 0 || agg.Work.Mean <= 0 || agg.MaxLoad.Mean <= 0 {
		t.Errorf("degenerate aggregate: %+v", agg)
	}
	if agg.WorkPerBall.Mean < 2 {
		t.Errorf("work per ball %v below 2", agg.WorkPerBall.Mean)
	}
	if agg.String() == "" {
		t.Error("empty aggregate string")
	}
}

func TestAggregateTracksBurnedFraction(t *testing.T) {
	results := runTrials(t, 3, true)
	agg := Aggregate(results)
	if agg.MaxBurnedFraction.Count != 3 {
		t.Errorf("burned-fraction summary over %d trials, want 3", agg.MaxBurnedFraction.Count)
	}
	if agg.MaxBurnedFraction.Max > 0.5 {
		t.Errorf("burned fraction max %v above 1/2 with c=4 on an easy instance", agg.MaxBurnedFraction.Max)
	}
}

func TestAggregateEmpty(t *testing.T) {
	agg := Aggregate(nil)
	if agg.Trials != 0 || agg.SuccessRate != 0 {
		t.Errorf("empty aggregate: %+v", agg)
	}
}

// Property: Gini is always within [0,1] and 0 for constant loads.
func TestQuickGiniBounds(t *testing.T) {
	f := func(raw []uint8) bool {
		loads := make([]int, len(raw))
		for i, v := range raw {
			loads[i] = int(v)
		}
		d := AnalyzeLoads(loads)
		if d.Gini < -1e-9 || d.Gini > 1+1e-9 {
			return false
		}
		if len(loads) > 0 {
			constant := make([]int, len(loads))
			for i := range constant {
				constant[i] = 5
			}
			if math.Abs(AnalyzeLoads(constant).Gini) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the histogram counts always sum to the number of servers.
func TestQuickHistogramTotal(t *testing.T) {
	f := func(raw []uint8) bool {
		loads := make([]int, len(raw))
		for i, v := range raw {
			loads[i] = int(v % 16)
		}
		d := AnalyzeLoads(loads)
		total := 0
		for _, c := range d.Histogram {
			total += c
		}
		return total == len(loads)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
