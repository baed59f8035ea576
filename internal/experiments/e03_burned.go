package experiments

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sweep"
)

// ExperimentBurnedFraction (E3) validates Lemma 4: with the threshold
// constant the paper prescribes (c ≥ max(32, 288/(η·d))), the maximum
// fraction of burned servers in any client's neighborhood stays below 1/2
// for every round up to 3·log₂ n. The table reports, per n, the worst S_t
// observed over all rounds and trials, the paper's prescribed c and the
// K_t bound that dominates S_t. η is the exact ∆/log₂² n of the regular
// topology, so the sweep runs on implicit representations (and past the
// materialization wall, up to n = 2¹⁸ in full mode — the per-round
// neighborhood tracking is O(|E|), which is what caps this sweep below
// E1/E2's 2²⁰).
func ExperimentBurnedFraction(cfg SuiteConfig) (*Table, error) {
	spec := sweep.Spec{
		ID:    "E3",
		Title: "Maximum burned-server fraction S_t (SAER, paper's c, Lemma 4)",
		Columns: []string{"n", "delta", "eta", "c_paper", "trials", "max_S_t",
			"max_K_t", "bound", "below_bound", "rounds_mean"},
	}

	d := 2
	for _, n := range largeSizes(cfg, 1<<18) {
		n, delta := n, regularDelta(n)
		eta := regularEta(n, delta)
		c := core.MinCRegular(eta, d)
		spec.Points = append(spec.Points, sweep.Point{
			ID:       fmt.Sprintf("n=%d", n),
			Topology: regularTopo(n, delta, 3, uint64(n)),
			Protocol: core.Config{Variant: core.SAER, D: d, C: c, TrackNeighborhoods: true},
			SeedKey:  []uint64{3, uint64(n)},
			Render: func(cfg SuiteConfig, out *sweep.Outcome, t *Table) error {
				maxSt, maxKt := 0.0, 0.0
				for _, r := range out.Results {
					for _, round := range r.PerRound {
						if round.MaxNeighborhoodBurnedFrac > maxSt {
							maxSt = round.MaxNeighborhoodBurnedFrac
						}
						if round.MaxKt > maxKt {
							maxKt = round.MaxKt
						}
					}
				}
				agg := metrics.Aggregate(out.Results)
				t.AddRowf(n, delta, eta, c, agg.Trials, maxSt, maxKt,
					analysis.BurnedFractionBound, fmtBool(maxSt <= analysis.BurnedFractionBound), agg.Rounds.Mean)
				return nil
			},
		})
	}
	spec.Finalize = func(cfg SuiteConfig, outs []*sweep.Outcome, t *Table) error {
		t.AddNote("claim: S_t ≤ 1/2 for all t ≤ 3·log₂ n w.h.p. when c ≥ max(32, 288/(η·d)) (Lemma 4)")
		t.AddNote("S_t ≤ K_t always holds (eq. (3)); with the paper's conservative c both stay near zero in practice")
		return nil
	}
	return sweep.Run(cfg, spec)
}
