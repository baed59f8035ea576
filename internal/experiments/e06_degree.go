package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sweep"
)

// ExperimentDegreeSweep (E6) probes the ∆ = Ω(log² n) hypothesis of
// Theorem 1 and the open question the paper raises for degrees o(log² n):
// at a fixed n, it sweeps the regular degree from Θ(log n) up to a dense
// regime and records the completion rate, round counts and the worst
// burned fraction. The theorem only promises good behaviour from the
// log² n row down; the smaller-degree rows empirically explore the open
// regime. The topologies go through the engine's representation
// selection, so `-topology implicit` sweeps every degree on regenerated
// neighborhoods.
func ExperimentDegreeSweep(cfg SuiteConfig) (*Table, error) {
	spec := sweep.Spec{
		ID:    "E6",
		Title: "Degree sweep at fixed n (SAER, d = 2, c = 4)",
		Columns: []string{"n", "delta", "delta_regime", "trials", "success",
			"rounds_mean", "rounds_max", "max_S_t", "bound_3log2n"},
	}

	n := 1 << 13
	if cfg.Quick {
		n = 1 << 10
	}
	logn := math.Log2(float64(n))
	log2n := int(math.Ceil(logn))
	deltas := []struct {
		delta  int
		regime string
	}{
		{max(2, log2n/2), "log(n)/2"},
		{log2n, "log(n)"},
		{max(2, int(logn*logn/4)), "log²(n)/4"},
		{int(logn * logn), "log²(n)"},
		{int(2 * logn * logn), "2·log²(n)"},
		{int(math.Pow(float64(n), 0.6)), "n^0.6"},
	}

	d := 2
	for _, dd := range deltas {
		dd := dd
		delta := dd.delta
		if delta > n {
			delta = n
		}
		spec.Points = append(spec.Points, sweep.Point{
			ID:       fmt.Sprintf("delta=%d", delta),
			Topology: regularTopo(n, delta, 6, uint64(delta)),
			Protocol: core.Config{Variant: core.SAER, D: d, C: 4, TrackNeighborhoods: true},
			SeedKey:  []uint64{6, uint64(delta)},
			Render: func(cfg SuiteConfig, out *sweep.Outcome, t *Table) error {
				agg := metrics.Aggregate(out.Results)
				maxSt := 0.0
				for _, r := range out.Results {
					for _, round := range r.PerRound {
						if round.MaxNeighborhoodBurnedFrac > maxSt {
							maxSt = round.MaxNeighborhoodBurnedFrac
						}
					}
				}
				t.AddRowf(n, delta, dd.regime, agg.Trials, fmtRate(agg.SuccessRate),
					agg.Rounds.Mean, agg.Rounds.Max, maxSt, core.CompletionBound(n))
				return nil
			},
		})
	}
	spec.Finalize = func(cfg SuiteConfig, outs []*sweep.Outcome, t *Table) error {
		t.AddNote("claim: Theorem 1 requires ∆ = Ω(log² n); rows below that regime explore the paper's open question (Section 4)")
		return nil
	}
	return sweep.Run(cfg, spec)
}
