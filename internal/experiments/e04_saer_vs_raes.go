package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sweep"
)

// ExperimentSAERvsRAES (E4) compares the two protocols on identical graphs
// and seeds (Corollary 2): RAES's saturation rule is weaker than SAER's
// burning rule, so RAES should never be slower and typically finishes in
// the same or fewer rounds with the same work order; both respect the same
// c·d load cap. The table reports both protocols side by side per n with a
// moderately small c, where the difference between burning and saturating
// is actually visible. Consecutive points share the topology and the
// per-trial seeds, so each row pair really is the two protocols on
// identical instances — the pairing Corollary 2's domination argument is
// about; the sweep extends to n = 2²⁴ on implicit topologies in full
// mode (the point-query draw path keeps the dense rounds O(n·d), not
// O(n·Δ), which is what makes the top octaves affordable).
func ExperimentSAERvsRAES(cfg SuiteConfig) (*Table, error) {
	spec := sweep.Spec{
		ID:    "E4",
		Title: "SAER vs RAES on identical instances (Corollary 2)",
		Columns: []string{"n", "protocol", "c", "success", "rounds_mean", "rounds_max",
			"work_per_ball", "max_load", "burned_mean", "saturation_events"},
	}

	d := 2
	cconst := 2.5 // small enough that servers actually reach the threshold
	for _, n := range largeSizes(cfg, 1<<24) {
		n, delta := n, regularDelta(n)
		for _, variant := range []core.Variant{core.SAER, core.RAES} {
			variant := variant
			spec.Points = append(spec.Points, sweep.Point{
				ID:       fmt.Sprintf("n=%d/%s", n, variant),
				Topology: regularTopo(n, delta, 4, uint64(n)),
				Protocol: core.Config{Variant: variant, D: d, C: cconst},
				SeedKey:  []uint64{4, uint64(n)},
				Render: func(cfg SuiteConfig, out *sweep.Outcome, t *Table) error {
					agg := metrics.Aggregate(out.Results)
					var saturation int64
					for _, r := range out.Results {
						saturation += r.SaturationEvents
					}
					t.AddRowf(n, variant.String(), cconst, fmtRate(agg.SuccessRate),
						agg.Rounds.Mean, agg.Rounds.Max, agg.WorkPerBall.Mean, agg.MaxLoad.Max, agg.Burned.Mean, saturation)
					return nil
				},
			})
		}
	}
	spec.Finalize = func(cfg SuiteConfig, outs []*sweep.Outcome, t *Table) error {
		t.AddNote("claim: the bounds of Theorem 1 extend to RAES because RAES's acceptances stochastically dominate SAER's (Corollary 2)")
		t.AddNote("expected shape: RAES rounds ≤ SAER rounds; both max loads ≤ ⌊c·d⌋")
		return nil
	}
	return sweep.Run(cfg, spec)
}
