package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// ExperimentCompletionScaling (E1) validates Theorem 1's completion-time
// claim: on random ∆-regular graphs with ∆ ≈ log² n, SAER terminates in
// O(log n) rounds. The table reports, for each n in the sweep, the mean
// and worst measured round count over independent trials next to the
// paper's 3·log₂ n reference, and the notes contain the least-squares fit
// of rounds against log₂ n (the slope is the measured hidden constant).
func ExperimentCompletionScaling(cfg SuiteConfig) (*Table, error) {
	spec := sweep.Spec{
		ID:    "E1",
		Title: "Completion time vs n (SAER, ∆ = log² n, d = 2, Theorem 1)",
		Columns: []string{"n", "delta", "c", "trials", "rounds_mean", "rounds_std",
			"rounds_max", "bound_3log2n", "within_bound"},
	}

	d := 2
	// A moderate threshold (well below the analysis constant) is used so
	// that servers actually burn and the logarithmic growth of the round
	// count is visible; with large c the protocol finishes in 1-2 rounds
	// at every size and the scaling claim is trivially satisfied.
	cconst := 2.5
	for _, n := range largeSizes(cfg, 1<<24) {
		n, delta := n, regularDelta(n)
		spec.Points = append(spec.Points, sweep.Point{
			ID:       fmt.Sprintf("n=%d", n),
			Topology: regularTopo(n, delta, 1, uint64(n)),
			Protocol: core.Config{Variant: core.SAER, D: d, C: cconst},
			SeedKey:  []uint64{1, uint64(n)},
			Render: func(cfg SuiteConfig, out *sweep.Outcome, t *Table) error {
				agg := metrics.Aggregate(out.Results)
				bound := core.CompletionBound(n)
				within := agg.SuccessRate == 1 && agg.Rounds.Max <= float64(bound)
				t.AddRowf(n, delta, cconst, agg.Trials, agg.Rounds.Mean, agg.Rounds.Std,
					agg.Rounds.Max, bound, fmtBool(within))
				return nil
			},
		})
	}
	spec.Finalize = func(cfg SuiteConfig, outs []*sweep.Outcome, t *Table) error {
		var logns, meanRounds []float64
		for _, out := range outs {
			logns = append(logns, math.Log2(float64(out.Point.Topology.N)))
			meanRounds = append(meanRounds, metrics.Aggregate(out.Results).Rounds.Mean)
		}
		if fit, err := stats.FitLinear(logns, meanRounds); err == nil {
			t.AddNote("least-squares fit: rounds ≈ %.2f + %.2f·log2(n), R²=%.3f (paper bound slope: 3)",
				fit.Intercept, fit.Slope, fit.R2)
		}
		t.AddNote("claim: completion time is O(log n) w.h.p. (Theorem 1)")
		return nil
	}
	return sweep.Run(cfg, spec)
}
