package experiments

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// ExperimentSequentialBaselines (E7) positions SAER against the prior
// algorithms the related-work section discusses: the sequential one-choice
// and best-of-k greedy (Azar et al. / Kenthapadi–Panigrahy), Godfrey's
// full-neighborhood greedy, a one-shot parallel k-choice greedy and the
// classic parallel threshold protocol. For each algorithm the table lists
// the achieved maximum load, the number of sequential steps or parallel
// rounds, the message work per ball and whether the algorithm requires
// servers to reveal their loads (the privacy point the paper makes in the
// introduction). The baselines read neighborhoods through the Topology
// interface, so the shared graph follows the engine's representation
// choice (csr/implicit/auto) like every other experiment.
func ExperimentSequentialBaselines(cfg SuiteConfig) (*Table, error) {
	spec := sweep.Spec{
		ID:    "E7",
		Title: "SAER vs sequential and parallel baselines (same graph, d = 2)",
		Columns: []string{"algorithm", "parallel", "needs_load_info", "max_load_mean",
			"max_load_worst", "steps_or_rounds", "work_per_ball", "completed"},
	}

	n := sizes(cfg)[len(sizes(cfg))-1]
	if cfg.Quick {
		n = 2048
	}
	d := 2
	topo := regularTopo(n, regularDelta(n), 7, uint64(n))
	balls := float64(n * d)

	addRow := func(t *Table, name, parallel, loadInfo string, maxLoads, steps, workPerBall []float64, completedAll bool) {
		ml := stats.MustSummarize(maxLoads)
		st := stats.MustSummarize(steps)
		wp := stats.MustSummarize(workPerBall)
		t.AddRowf(name, parallel, loadInfo, ml.Mean, ml.Max, st.Mean, wp.Mean, fmtBool(completedAll))
	}

	// SAER and RAES through the core package.
	for _, variant := range []core.Variant{core.SAER, core.RAES} {
		variant := variant
		spec.Points = append(spec.Points, sweep.Point{
			ID:       "protocol/" + variant.String(),
			Topology: topo,
			Protocol: core.Config{Variant: variant, D: d, C: 4},
			SeedKey:  []uint64{7, uint64(variant)},
			Render: func(cfg SuiteConfig, out *sweep.Outcome, t *Table) error {
				agg := metrics.Aggregate(out.Results)
				var maxLoads, steps, workPerBall []float64
				for _, res := range out.Results {
					maxLoads = append(maxLoads, float64(res.MaxLoad))
					steps = append(steps, float64(res.Rounds))
					workPerBall = append(workPerBall, res.WorkPerBall())
				}
				addRow(t, variant.String(), "yes", "no", maxLoads, steps, workPerBall, agg.SuccessRate == 1)
				return nil
			},
		})
	}

	specs := []struct {
		name, parallel, loadInfo string
		run                      func(g bipartite.Topology, seed uint64) (*baseline.Result, error)
	}{
		{"one-choice", "no", "no", func(g bipartite.Topology, seed uint64) (*baseline.Result, error) {
			return baseline.OneChoice(g, d, seed)
		}},
		{"greedy-best-of-2", "no", "yes", func(g bipartite.Topology, seed uint64) (*baseline.Result, error) {
			return baseline.GreedyBestOfK(g, d, 2, seed)
		}},
		{"greedy-best-of-4", "no", "yes", func(g bipartite.Topology, seed uint64) (*baseline.Result, error) {
			return baseline.GreedyBestOfK(g, d, 4, seed)
		}},
		{"greedy-full-scan", "no", "yes", func(g bipartite.Topology, seed uint64) (*baseline.Result, error) {
			return baseline.GreedyFullScan(g, d, seed)
		}},
		{"parallel-1shot-2-choice", "yes", "yes", func(g bipartite.Topology, seed uint64) (*baseline.Result, error) {
			return baseline.ParallelOneShotKChoice(g, d, 2, seed)
		}},
		{"parallel-threshold-4", "yes", "no", func(g bipartite.Topology, seed uint64) (*baseline.Result, error) {
			return baseline.ParallelThreshold(g, d, 4, 0, seed)
		}},
	}
	for _, sp := range specs {
		sp := sp
		spec.Points = append(spec.Points, sweep.Point{
			ID:       "baseline/" + sp.name,
			Topology: topo,
			// Historical quirk, preserved for byte-identical tables: the
			// seed key is the algorithm's name *length*, so the three
			// 16-letter greedy baselines share per-trial seed sequences
			// (their rows are correlated, not independent samples). Key by
			// the spec index if byte-identity ever stops mattering.
			SeedKey: []uint64{7, uint64(len(sp.name))},
			Run: func(cfg SuiteConfig, g bipartite.Topology, trial int, seed uint64) (any, error) {
				res, err := sp.run(g, seed)
				if err != nil {
					return nil, fmt.Errorf("experiments: baseline %s: %w", sp.name, err)
				}
				return res, nil
			},
			Render: func(cfg SuiteConfig, out *sweep.Outcome, t *Table) error {
				var maxLoads, steps, workPerBall []float64
				completedAll := true
				for _, c := range out.Custom {
					res := c.(*baseline.Result)
					maxLoads = append(maxLoads, float64(res.MaxLoad))
					steps = append(steps, float64(res.Steps))
					workPerBall = append(workPerBall, float64(res.Work)/balls)
					completedAll = completedAll && res.Completed
				}
				addRow(t, sp.name, sp.parallel, sp.loadInfo, maxLoads, steps, workPerBall, completedAll)
				return nil
			},
		})
	}
	spec.Finalize = func(cfg SuiteConfig, outs []*sweep.Outcome, t *Table) error {
		t.AddNote("claim context: sequential greedy needs current server loads (privacy/communication cost); SAER achieves O(d) load with only accept/reject bits and O(log n) parallel rounds")
		t.AddNote("expected shape: greedy variants reach smaller absolute max load; SAER/RAES trade a constant-factor larger (but still ≤ c·d) load for parallelism and 1-bit answers")
		return nil
	}
	return sweep.Run(cfg, spec)
}
