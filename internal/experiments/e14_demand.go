package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// ExperimentHeterogeneousDemand (E14) exercises the paper's general case
// (every client holds *at most* d balls, Section 2.2) and the
// heavier-loaded regimes studied in the related work: demand vectors range
// from the uniform base case through uniform-random, Zipf-skewed and
// bursty workloads, and from light (d = 2) to heavy (d = 16) maximum
// demand. The table reports, per workload, the completion time, work per
// ball and maximum load next to the c·d cap. All workloads share one
// topology point grid; the demand vectors are generated up front (they
// parameterize the points).
func ExperimentHeterogeneousDemand(cfg SuiteConfig) (*Table, error) {
	spec := sweep.Spec{
		ID:    "E14",
		Title: "Heterogeneous and heavy demand (general ≤ d case, SAER, c = 4)",
		Columns: []string{"workload", "max_d", "mean_demand", "total_balls", "trials",
			"success", "rounds_mean", "rounds_max", "work_per_ball", "max_load", "cap"},
	}

	n := 1 << 13
	if cfg.Quick {
		n = 1 << 10
	}

	type wspec struct {
		name string
		gen  func(src *rng.Source) (workload.Demand, error)
		d    int
	}
	wspecs := []wspec{
		{"uniform d=2", func(*rng.Source) (workload.Demand, error) { return workload.Uniform(n, 2) }, 2},
		{"uniform d=8", func(*rng.Source) (workload.Demand, error) { return workload.Uniform(n, 8) }, 8},
		{"uniform d=16", func(*rng.Source) (workload.Demand, error) { return workload.Uniform(n, 16) }, 16},
		{"uniform-random ≤8", func(src *rng.Source) (workload.Demand, error) { return workload.UniformRandom(n, 8, src) }, 8},
		{"zipf(1.1) ≤8", func(src *rng.Source) (workload.Demand, error) { return workload.Zipf(n, 8, 1.1, src) }, 8},
		{"bursty 10% ≤8", func(src *rng.Source) (workload.Demand, error) { return workload.Bursty(n, 8, 1, 0.1, src) }, 8},
	}

	for si, sp := range wspecs {
		si, sp := si, sp
		demand, err := sp.gen(rng.New(cfg.TrialSeed(14, uint64(si))))
		if err != nil {
			return nil, fmt.Errorf("experiments: E14 workload %s: %w", sp.name, err)
		}
		if err := demand.Validate(); err != nil {
			return nil, err
		}
		proto := core.Config{Variant: core.SAER, D: sp.d, C: 4, RequestCounts: demand.Counts}
		spec.Points = append(spec.Points, sweep.Point{
			ID:       "workload/" + sp.name,
			Topology: regularTopo(n, regularDelta(n), 14, uint64(n)),
			Protocol: proto,
			SeedKey:  []uint64{14, uint64(si)},
			Render: func(cfg SuiteConfig, out *sweep.Outcome, t *Table) error {
				agg := metrics.Aggregate(out.Results)
				t.AddRowf(sp.name, sp.d, demand.MeanDemand(), demand.Total, agg.Trials, fmtRate(agg.SuccessRate),
					agg.Rounds.Mean, agg.Rounds.Max, agg.WorkPerBall.Mean, agg.MaxLoad.Max, proto.Params().Capacity())
				return nil
			},
		})
	}
	spec.Finalize = func(cfg SuiteConfig, outs []*sweep.Outcome, t *Table) error {
		t.AddNote("claim: the protocol and its analysis extend unchanged to the general 'at most d balls per client' case (Section 2.2)")
		t.AddNote("expected shape: rounds stay logarithmic and work per ball stays a small constant regardless of demand skew; the cap scales as c·d with the configured maximum demand")
		return nil
	}
	return sweep.Run(cfg, spec)
}
