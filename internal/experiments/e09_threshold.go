package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sweep"
)

// ExperimentThresholdSweep (E9) studies the role of the threshold constant
// c, the knob the paper's analysis does not optimize: it sweeps c at a
// fixed (n, ∆, d) and records the completion rate, completion time, number
// of burned servers and worst S_t. The expected shape is a sharp
// transition: for c close to 1 the protocol starves (servers burn faster
// than balls settle), and already for modest constants (far below the
// analysis's max(32, 288/(η·d))) it completes within the logarithmic
// bound. All c points share one topology, built in the representation the
// engine selects (η is the exact ∆/log₂² n of the regular family, so no
// materialized degree scan is needed).
func ExperimentThresholdSweep(cfg SuiteConfig) (*Table, error) {
	spec := sweep.Spec{
		ID:    "E9",
		Title: "Threshold-constant sweep (SAER, regular graph, d = 2)",
		Columns: []string{"c", "cap", "trials", "success", "rounds_mean", "rounds_max",
			"burned_mean", "max_S_t", "unassigned_mean"},
	}

	n := 1 << 13
	if cfg.Quick {
		n = 1 << 10
	}
	d := 2
	delta := regularDelta(n)
	eta := regularEta(n, delta)

	cs := []float64{1, 1.25, 1.5, 2, 3, 4, 8, 16, 32, core.MinCRegular(eta, d)}
	for _, c := range cs {
		c := c
		proto := core.Config{Variant: core.SAER, D: d, C: c, TrackNeighborhoods: true}
		spec.Points = append(spec.Points, sweep.Point{
			ID:       fmt.Sprintf("c=%g", c),
			Topology: regularTopo(n, delta, 9, uint64(n)),
			Protocol: proto,
			SeedKey:  []uint64{9, uint64(c * 1000)},
			Render: func(cfg SuiteConfig, out *sweep.Outcome, t *Table) error {
				agg := metrics.Aggregate(out.Results)
				maxSt := 0.0
				unassigned := 0.0
				for _, r := range out.Results {
					for _, round := range r.PerRound {
						if round.MaxNeighborhoodBurnedFrac > maxSt {
							maxSt = round.MaxNeighborhoodBurnedFrac
						}
					}
					unassigned += float64(r.UnassignedBalls)
				}
				unassigned /= float64(len(out.Results))
				t.AddRowf(c, proto.Params().Capacity(), agg.Trials, fmtRate(agg.SuccessRate),
					agg.Rounds.Mean, agg.Rounds.Max, agg.Burned.Mean, maxSt, unassigned)
				return nil
			},
		})
	}
	spec.Finalize = func(cfg SuiteConfig, outs []*sweep.Outcome, t *Table) error {
		t.AddNote("n=%d, ∆=%d (η=%.2f); the paper's prescribed c is the last row: max(32, 288/(η·d)) = %.1f", n, delta, eta, core.MinCRegular(eta, d))
		t.AddNote("expected shape: failure/starvation for c ≈ 1, fast logarithmic completion already for small constants c ≥ 2")
		return nil
	}
	return sweep.Run(cfg, spec)
}
