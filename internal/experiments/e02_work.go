package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// ExperimentWorkScaling (E2) validates Theorem 1's work claim: the total
// number of exchanged messages is Θ(n). The table reports, for each n, the
// mean work and the work normalized per ball; the latter should stay a
// small constant as n grows (linearity). The notes contain the fit of
// total work against n — an R² close to 1 with near-zero intercept is the
// Θ(n) signature.
func ExperimentWorkScaling(cfg SuiteConfig) (*Table, error) {
	spec := sweep.Spec{
		ID:    "E2",
		Title: "Total work vs n (SAER, ∆ = log² n, d = 2, Theorem 1)",
		Columns: []string{"n", "balls", "trials", "work_mean", "work_per_ball_mean",
			"work_per_ball_max", "rounds_mean"},
	}

	d := 2
	for _, n := range largeSizes(cfg, 1<<20) {
		n, delta := n, regularDelta(n)
		spec.Points = append(spec.Points, sweep.Point{
			ID:       fmt.Sprintf("n=%d", n),
			Topology: regularTopo(n, delta, 2, uint64(n)),
			Protocol: core.Config{Variant: core.SAER, D: d, C: 4},
			SeedKey:  []uint64{2, uint64(n)},
			Render: func(cfg SuiteConfig, out *sweep.Outcome, t *Table) error {
				agg := metrics.Aggregate(out.Results)
				t.AddRowf(n, n*d, agg.Trials, agg.Work.Mean, agg.WorkPerBall.Mean,
					agg.WorkPerBall.Max, agg.Rounds.Mean)
				return nil
			},
		})
	}
	spec.Finalize = func(cfg SuiteConfig, outs []*sweep.Outcome, t *Table) error {
		var ns, works []float64
		for _, out := range outs {
			ns = append(ns, float64(out.Point.Topology.N))
			works = append(works, metrics.Aggregate(out.Results).Work.Mean)
		}
		if fit, err := stats.FitLinear(ns, works); err == nil {
			t.AddNote("least-squares fit: work ≈ %.1f + %.2f·n, R²=%.3f (linear work ⇒ slope ≈ 2d·(1+ε), intercept ≈ 0)",
				fit.Intercept, fit.Slope, fit.R2)
		}
		t.AddNote("claim: total work is Θ(n) w.h.p. (Theorem 1, Section 3.2)")
		return nil
	}
	return sweep.Run(cfg, spec)
}
