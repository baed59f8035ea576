package experiments

import (
	"fmt"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/sweep"
)

// ExperimentAlmostRegular (E8) validates Theorem 1 on the paper's
// almost-regular "non-extremal example": most clients have degree
// Θ(log² n), a few heavy clients have degree Θ(√n), and a few servers have
// only constant degree. For each n the table reports the measured degree
// irregularity (ρ, ∆min, heavy degree), the c prescribed by Lemma 19 for
// that ρ, and the usual completion/load outcomes. The prescribed c
// depends on the *measured* server degrees (ρ is a property of the
// sampled graph, not the configuration); the implicit almost-regular
// topology records an exact per-server degree table at construction
// (gen.Implicit.DegreeStats), so the derivation works on every
// representation and the sweep extends into the implicit sizes — E8 no
// longer pins ForceCSR.
func ExperimentAlmostRegular(cfg SuiteConfig) (*Table, error) {
	spec := sweep.Spec{
		ID:    "E8",
		Title: "Almost-regular graphs: the paper's heavy-client / light-server example (Theorem 1, Appendix D)",
		Columns: []string{"n", "min_deg_C", "max_deg_C", "max_deg_S", "rho", "c_paper",
			"trials", "success", "rounds_mean", "bound_3log2n", "max_load", "cap"},
	}

	d := 2
	for _, n := range largeSizes(cfg, 1<<18) {
		n := n
		// The engine calls ParamsFrom before the point's trials and Render
		// after them, on the same built graph, so the O(n) degree scan and
		// the derived thresholds are computed once per point and carried
		// into the rendering. c is Lemma 19's prescription; cRun caps it at
		// 64 — the analysis constant is extremely conservative, and the cap
		// also demonstrates that a moderate constant works on irregular
		// graphs.
		var st bipartite.DegreeStats
		var c, cRun float64
		spec.Points = append(spec.Points, sweep.Point{
			ID: fmt.Sprintf("n=%d", n),
			Topology: sweep.Topo{Family: sweep.FamAlmostRegular, N: n,
				Almost: gen.DefaultAlmostRegularConfig(n), SeedKey: []uint64{8, uint64(n)}},
			ProtocolFrom: func(cfg SuiteConfig, g bipartite.Topology) (core.Config, error) {
				var ok bool
				st, ok = bipartite.TopologyStats(g)
				if !ok {
					return core.Config{}, fmt.Errorf("almost-regular topology %v reports no exact degree statistics", g)
				}
				c = core.MinCAlmostRegular(st.Eta, st.RegularityRatio, d)
				cRun = min(c, 64)
				return core.Config{Variant: core.SAER, D: d, C: cRun}, nil
			},
			SeedKey: []uint64{8, uint64(n)},
			Render: func(cfg SuiteConfig, out *sweep.Outcome, t *Table) error {
				agg := metrics.Aggregate(out.Results)
				t.AddRowf(n, st.MinClientDegree, st.MaxClientDegree, st.MaxServerDegree, st.RegularityRatio,
					c, agg.Trials, fmtRate(agg.SuccessRate), agg.Rounds.Mean, core.CompletionBound(n),
					agg.MaxLoad.Max, core.Params{D: d, C: cRun}.Capacity())
				return nil
			},
		})
	}
	spec.Finalize = func(cfg SuiteConfig, outs []*sweep.Outcome, t *Table) error {
		t.AddNote("claim: Theorem 1 only needs ∆min(C) ≥ η·log² n and ∆max(S)/∆min(C) ≤ ρ; heavy Θ(√n)-degree clients and O(1)-degree servers are allowed")
		t.AddNote("the run uses min(c_paper, 64): the analysis constant is conservative and smaller thresholds already complete within the bound")
		return nil
	}
	return sweep.Run(cfg, spec)
}
