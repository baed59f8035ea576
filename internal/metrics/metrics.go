// Package metrics turns raw protocol results into the summary quantities
// the experiments report: load-distribution statistics for a single run
// and aggregates over repeated trials.
package metrics

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/stats"
)

// LoadDistribution summarizes a per-server load vector.
type LoadDistribution struct {
	Servers int
	Max     int
	Min     int
	Mean    float64
	Std     float64
	// Imbalance is Max/Mean, the classic load-imbalance factor (1 is
	// perfect balance). It is 0 when the mean is 0.
	Imbalance float64
	// Gini is the Gini coefficient of the load vector in [0,1]
	// (0 = perfectly even, 1 = all load on one server).
	Gini float64
	// Histogram maps a load value to the number of servers carrying it.
	Histogram map[int]int
	// EmptyServers is the number of servers with zero load.
	EmptyServers int
}

// AnalyzeLoads computes a LoadDistribution from a load vector.
func AnalyzeLoads(loads []int) LoadDistribution {
	d := LoadDistribution{
		Servers:   len(loads),
		Histogram: make(map[int]int),
	}
	if len(loads) == 0 {
		return d
	}
	d.Min = math.MaxInt
	var sum int64
	for _, l := range loads {
		if l > d.Max {
			d.Max = l
		}
		if l < d.Min {
			d.Min = l
		}
		if l == 0 {
			d.EmptyServers++
		}
		sum += int64(l)
		d.Histogram[l]++
	}
	d.Mean = float64(sum) / float64(len(loads))
	var ss float64
	for _, l := range loads {
		diff := float64(l) - d.Mean
		ss += diff * diff
	}
	d.Std = math.Sqrt(ss / float64(len(loads)))
	if d.Mean > 0 {
		d.Imbalance = float64(d.Max) / d.Mean
	}
	d.Gini = gini(loads)
	return d
}

// gini computes the Gini coefficient of non-negative integer loads.
func gini(loads []int) float64 {
	n := len(loads)
	if n == 0 {
		return 0
	}
	sorted := append([]int(nil), loads...)
	sort.Ints(sorted)
	var cum, total float64
	var weighted float64
	for i, l := range sorted {
		total += float64(l)
		weighted += float64(i+1) * float64(l)
		cum += float64(l)
	}
	_ = cum
	if total == 0 {
		return 0
	}
	// G = (2·Σ i·x_(i))/(n·Σ x) − (n+1)/n  with 1-based ranks over the
	// ascending order.
	return 2*weighted/(float64(n)*total) - float64(n+1)/float64(n)
}

// String renders the distribution in one line.
func (d LoadDistribution) String() string {
	return fmt.Sprintf("loads{servers=%d max=%d min=%d mean=%.2f std=%.2f imbalance=%.2f gini=%.3f empty=%d}",
		d.Servers, d.Max, d.Min, d.Mean, d.Std, d.Imbalance, d.Gini, d.EmptyServers)
}

// TrialAggregate summarizes repeated protocol executions with identical
// parameters but independent seeds.
type TrialAggregate struct {
	Trials      int
	SuccessRate float64 // fraction of trials that completed
	Rounds      stats.Summary
	Work        stats.Summary
	WorkPerBall stats.Summary
	MaxLoad     stats.Summary
	Burned      stats.Summary
	// MaxBurnedFraction is the per-trial maximum of S_t aggregated across
	// trials; only meaningful when the runs tracked neighborhoods.
	MaxBurnedFraction stats.Summary
}

// Aggregate combines results. Summaries of rounds/work/etc. include every
// trial (also incomplete ones); SuccessRate reports how many completed.
// It returns a zero aggregate when no results are given.
func Aggregate(results []*core.Result) TrialAggregate {
	agg := TrialAggregate{Trials: len(results)}
	if len(results) == 0 {
		return agg
	}
	rounds := make([]float64, 0, len(results))
	work := make([]float64, 0, len(results))
	wpb := make([]float64, 0, len(results))
	maxLoad := make([]float64, 0, len(results))
	burned := make([]float64, 0, len(results))
	burnedFrac := make([]float64, 0, len(results))
	completed := 0
	for _, r := range results {
		if r == nil {
			continue
		}
		if r.Completed {
			completed++
		}
		rounds = append(rounds, float64(r.Rounds))
		work = append(work, float64(r.Work))
		wpb = append(wpb, r.WorkPerBall())
		maxLoad = append(maxLoad, float64(r.MaxLoad))
		burned = append(burned, float64(r.BurnedServers))
		if len(r.PerRound) > 0 {
			maxFrac := 0.0
			for _, st := range r.PerRound {
				if st.MaxNeighborhoodBurnedFrac > maxFrac {
					maxFrac = st.MaxNeighborhoodBurnedFrac
				}
			}
			burnedFrac = append(burnedFrac, maxFrac)
		}
	}
	agg.SuccessRate = float64(completed) / float64(len(results))
	agg.Rounds = stats.MustSummarize(rounds)
	agg.Work = stats.MustSummarize(work)
	agg.WorkPerBall = stats.MustSummarize(wpb)
	agg.MaxLoad = stats.MustSummarize(maxLoad)
	agg.Burned = stats.MustSummarize(burned)
	if len(burnedFrac) > 0 {
		agg.MaxBurnedFraction = stats.MustSummarize(burnedFrac)
	}
	return agg
}

// String renders the aggregate in one line.
func (a TrialAggregate) String() string {
	return fmt.Sprintf("trials=%d success=%.0f%% rounds=%.1f±%.1f work/ball=%.2f maxLoad=%.1f (max %.0f)",
		a.Trials, 100*a.SuccessRate, a.Rounds.Mean, a.Rounds.Std, a.WorkPerBall.Mean, a.MaxLoad.Mean, a.MaxLoad.Max)
}
