package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sweep"
)

// ExperimentDenseRegime (E10) is the regression against the dense setting
// of Becchetti et al.: when every client sees Ω(n) servers, the fraction
// of non-burned servers in any neighborhood stays at least 1/2
// *deterministically* (the counting argument the dense analysis relies
// on), so the completion behaviour should be at least as good as on sparse
// graphs. The table sweeps the density from the paper's sparse regime up
// to the complete bipartite graph at a fixed n.
func ExperimentDenseRegime(cfg SuiteConfig) (*Table, error) {
	spec := sweep.Spec{
		ID:    "E10",
		Title: "From sparse (log² n) to dense (complete) graphs at fixed n (SAER vs RAES)",
		Columns: []string{"density", "delta", "protocol", "trials", "success",
			"rounds_mean", "rounds_max", "max_S_t", "burned_mean"},
	}

	n := 1 << 12
	if cfg.Quick {
		n = 512
	}
	d := 2
	densities := []struct {
		name  string
		delta int
		// pinCSR forces the materialized representation for the dense
		// Ω(n)-degree points: under `-topology implicit` they would
		// regenerate Δ = n/8 … n/2 Feistel rows at ~8× a CSR read per
		// round, and at E10's fixed n the CSR adjacency is small anyway.
		pinCSR bool
	}{
		{"log²n", regularDelta(n), false},
		{"n/8", n / 8, true},
		{"n/2", n / 2, true},
		{"complete", n, false},
	}
	for _, dens := range densities {
		dens := dens
		topo := regularTopo(n, dens.delta, 10, uint64(dens.delta))
		topo.ForceCSR = dens.pinCSR
		if dens.delta >= n {
			topo = sweep.Topo{Family: sweep.FamComplete, N: n, SeedKey: []uint64{10, uint64(dens.delta)}}
		}
		for _, variant := range []core.Variant{core.SAER, core.RAES} {
			variant := variant
			spec.Points = append(spec.Points, sweep.Point{
				ID:       fmt.Sprintf("%s/%s", dens.name, variant),
				Topology: topo,
				Protocol: core.Config{Variant: variant, D: d, C: 4, TrackNeighborhoods: true},
				SeedKey:  []uint64{10, uint64(dens.delta), uint64(variant)},
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
					t.AddRowf(dens.name, dens.delta, variant.String(), agg.Trials, fmtRate(agg.SuccessRate),
						agg.Rounds.Mean, agg.Rounds.Max, maxSt, agg.Burned.Mean)
					return nil
				},
			})
		}
	}
	spec.Finalize = func(cfg SuiteConfig, outs []*sweep.Outcome, t *Table) error {
		t.AddNote("claim context: on ∆ = Ω(n) graphs the non-burned fraction of every neighborhood stays ≥ 1/2 deterministically (Becchetti et al.); the sparse regime is the paper's new contribution")
		t.AddNote("expected shape: completion stays logarithmic across all densities; S_t decreases as the graph gets denser")
		return nil
	}
	return sweep.Run(cfg, spec)
}
