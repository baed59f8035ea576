package experiments

import (
	"fmt"

	"repro/internal/bipartite"
	"repro/internal/churn"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// DynamicConfig parameterizes the dynamic/online scenario of experiment
// E12 (the paper's future-work section): client batches arrive over time,
// each batch sees a re-randomized admissibility topology over the same
// server set, and a matching amount of previously placed load expires
// between batches, so the system reaches a metastable regime instead of
// filling up.
type DynamicConfig struct {
	NumServers   int
	BatchClients int
	Batches      int
	D            int
	C            float64
	Delta        int
	// ChurnFraction is the fraction of each server's load that expires
	// between batches (0 disables churn; 1 empties the servers).
	ChurnFraction float64
	// Rebuild selects the legacy full-rebuild path: a freshly
	// materialized graph per batch (O(n·Δ) per step), reproducing the
	// historical E12 numbers exactly. The default runs on the
	// incremental churn subsystem: one churn.Topology whose clients are
	// all rewired per batch in O(n) (implicit backend), driven through
	// the reused sharded Runner via PatchTopology.
	Rebuild bool
	// TrackRounds records each batch's per-round protocol series into
	// the outcomes (for the -json round records); it changes no outcome.
	TrackRounds bool
	// Workers and Shards configure the per-batch protocol runs (0 = the
	// core defaults). Like everywhere else they are pure performance
	// knobs: outcomes are bit-for-bit independent of them
	// (TestE12IncrementalPathEquivalence pins it for this scenario).
	Workers int
	Shards  int
}

// DefaultDynamicConfig scales the scenario to the suite configuration.
func DefaultDynamicConfig(cfg SuiteConfig) DynamicConfig {
	n := 1 << 12
	batches := 8
	if cfg.Quick {
		n = 1 << 10
		batches = 5
	}
	return DynamicConfig{
		NumServers: n,
		// One batch brings d new balls per server on average; with 50%
		// churn the system settles around a mean load of 2d — half the
		// capacity — so the metastable regime is actually exercised.
		BatchClients:  n,
		Batches:       batches,
		D:             2,
		C:             4,
		Delta:         regularDelta(n),
		ChurnFraction: 0.5,
	}
}

// DynamicBatchOutcome records one batch of the dynamic scenario.
type DynamicBatchOutcome struct {
	Batch           int
	ArrivingBalls   int
	Rounds          int
	Completed       bool
	MaxLoad         int
	MeanLoad        float64
	BurnedAtStart   int
	UnassignedBalls int
	// PerRound is the batch's per-round protocol series (nil unless
	// DynamicConfig.TrackRounds).
	PerRound []core.RoundStats
}

// RunDynamicScenario executes the online arrival process and returns the
// per-batch outcomes. Server loads persist across batches (minus churn),
// which is exactly the metastable regime the paper conjectures SAER can
// sustain. The incremental path (default) and the legacy rebuild path
// model the same process but draw different graphs, so their numbers are
// comparable, not identical.
func RunDynamicScenario(dc DynamicConfig, seed uint64) ([]DynamicBatchOutcome, error) {
	if dc.NumServers <= 0 || dc.BatchClients <= 0 || dc.Batches <= 0 {
		return nil, fmt.Errorf("experiments: invalid dynamic config %+v", dc)
	}
	if dc.Rebuild {
		return runDynamicRebuild(dc, seed)
	}
	return runDynamicIncremental(dc, seed)
}

// runDynamicIncremental is the churn-subsystem path: one implicit
// trust-subset topology whose clients all rewire between batches
// (ChurnFraction of the *load* expires; the topology re-randomizes
// fully, as in the legacy scenario — but in O(n) marks instead of an
// O(n·Δ) rebuild), one Runner reused across every batch.
func runDynamicIncremental(dc DynamicConfig, seed uint64) ([]DynamicBatchOutcome, error) {
	delta := dc.Delta
	if delta > dc.NumServers {
		delta = dc.NumServers
	}
	src := rng.New(seed)
	base, err := gen.TrustSubsetImplicit(dc.BatchClients, dc.NumServers, delta, src.Uint64())
	if err != nil {
		return nil, err
	}
	topo, err := churn.New(churn.Config{
		Base:    base,
		Sampler: churn.TrustSampler(dc.NumServers, delta),
		Seed:    src.Uint64(),
		Backend: churn.BackendImplicit,
	})
	if err != nil {
		return nil, err
	}
	workers := dc.Workers
	if workers == 0 {
		workers = 1
	}
	proto := core.Config{Variant: core.SAER, D: dc.D, C: dc.C, Workers: workers, Shards: dc.Shards}
	sch, err := churn.NewScheduler(topo, churn.SchedulerConfig{
		Protocol:    proto,
		LoadExpiry:  dc.ChurnFraction,
		TrackRounds: dc.TrackRounds,
	}, src.Uint64())
	if err != nil {
		return nil, err
	}
	all := make([]int32, dc.BatchClients)
	for v := range all {
		all[v] = int32(v)
	}
	outcomes := make([]DynamicBatchOutcome, 0, dc.Batches)
	for batch := 0; batch < dc.Batches; batch++ {
		out, err := sch.Step(churn.EpochEvent{Dt: 1, Rewire: all, RedemandAll: true})
		if err != nil {
			return nil, err
		}
		outcomes = append(outcomes, DynamicBatchOutcome{
			Batch:           out.Epoch,
			ArrivingBalls:   out.DemandBalls,
			Rounds:          out.Rounds,
			Completed:       out.Completed,
			MaxLoad:         out.MaxLoad,
			MeanLoad:        out.MeanLoad,
			BurnedAtStart:   out.BurnedAtStart,
			UnassignedBalls: out.UnassignedBalls,
			PerRound:        out.PerRound,
		})
	}
	return outcomes, nil
}

// runDynamicRebuild is the legacy path: a freshly built, materialized
// graph per batch, kept because its numbers are the historical E12
// table (and as the baseline the incremental-vs-rebuild epoch-cost
// benchmark measures against).
func runDynamicRebuild(dc DynamicConfig, seed uint64) ([]DynamicBatchOutcome, error) {
	src := rng.New(seed)
	loads := make([]int, dc.NumServers)
	capacity := core.Params{D: dc.D, C: dc.C}.Capacity()
	outcomes := make([]DynamicBatchOutcome, 0, dc.Batches)
	// One Runner serves every batch: the batch shape (clients × servers)
	// is constant, so the per-batch topology is swapped in and the run
	// state reset via Reseed instead of reallocating ~O(n) state per
	// batch. Config.InitialLoads aliases the loads slice, so each Reseed
	// picks up the churned carry-over loads in place.
	var runner *core.Runner
	for batch := 0; batch < dc.Batches; batch++ {
		// Churn: a fraction of every server's load expires.
		if dc.ChurnFraction > 0 {
			for u := range loads {
				expired := int(float64(loads[u]) * dc.ChurnFraction)
				loads[u] -= expired
			}
		}
		// Fresh topology for the arriving batch.
		delta := dc.Delta
		if delta > dc.NumServers {
			delta = dc.NumServers
		}
		g, err := gen.BiRegular(dc.BatchClients, delta, dc.NumServers, dc.BatchClients*delta/dc.NumServers, src.Split())
		if err != nil {
			// Fall back to a trust-subset graph when the biregular degree
			// sequence is infeasible for this batch size.
			g, err = gen.TrustSubset(dc.BatchClients, dc.NumServers, delta, src.Split())
			if err != nil {
				return nil, err
			}
		}
		burnedAtStart := 0
		for _, l := range loads {
			if l >= capacity {
				burnedAtStart++
			}
		}
		batchSeed := src.Uint64()
		if runner == nil {
			proto := core.Config{Variant: core.SAER, D: dc.D, C: dc.C, Seed: batchSeed, Workers: 1,
				InitialLoads: loads, TrackLoads: true, TrackRounds: dc.TrackRounds}
			runner, err = proto.NewRunner(g)
			if err != nil {
				return nil, err
			}
		} else {
			if err := runner.SwapTopology(g); err != nil {
				return nil, err
			}
			runner.Reseed(batchSeed)
		}
		res := runner.Run()
		copy(loads, res.Loads)
		out := DynamicBatchOutcome{
			Batch:           batch + 1,
			ArrivingBalls:   dc.BatchClients * dc.D,
			Rounds:          res.Rounds,
			Completed:       res.Completed,
			MaxLoad:         res.MaxLoad,
			MeanLoad:        res.MeanLoad,
			BurnedAtStart:   burnedAtStart,
			UnassignedBalls: res.UnassignedBalls,
		}
		if dc.TrackRounds {
			out.PerRound = append([]core.RoundStats(nil), res.PerRound...)
		}
		outcomes = append(outcomes, out)
	}
	return outcomes, nil
}

// dynamicPoint declares one scenario point of E12 and renders its
// per-batch outcomes as rows tagged with the path, streaming the
// per-round series into the record stream.
func dynamicPoint(dc DynamicConfig, path string, seedOf func(cfg SuiteConfig) uint64) sweep.Point {
	return sweep.Point{
		ID:     path,
		Trials: 1,
		// The scenario's seed is a bare suite-derived key (no trial index
		// appended — the rebuild path keeps its historical seed so its
		// numbers reproduce the legacy table byte for byte), and its
		// graphs are built by the scenario itself — hence the seed
		// override and the FamNone (zero-value) topology.
		Seed: func(cfg SuiteConfig, _ int) uint64 { return seedOf(cfg) },
		Run: func(cfg SuiteConfig, _ bipartite.Topology, _ int, seed uint64) (any, error) {
			run := dc
			run.TrackRounds = run.TrackRounds || cfg.Records != nil
			return RunDynamicScenario(run, seed)
		},
		Render: func(cfg SuiteConfig, out *sweep.Outcome, t *Table) error {
			outcomes := out.Custom[0].([]DynamicBatchOutcome)
			capacity := core.Params{D: dc.D, C: dc.C}.Capacity()
			var rounds []float64
			for _, o := range outcomes {
				t.AddRowf(path, o.Batch, o.ArrivingBalls, o.BurnedAtStart, o.Rounds, fmtBool(o.Completed),
					o.MaxLoad, capacity, o.MeanLoad, o.UnassignedBalls)
				rounds = append(rounds, float64(o.Rounds))
				cfg.Records.RoundSeries("E12", path, 0, o.Batch, o.PerRound)
			}
			if s, err := stats.Summarize(rounds); err == nil {
				t.AddNote("%s: rounds per batch: mean %.1f, max %.0f (completion bound for the batch size: %d)",
					path, s.Mean, s.Max, core.CompletionBound(dc.BatchClients))
			}
			return nil
		},
	}
}

// ExperimentDynamic (E12) exercises the paper's future-work conjecture
// that SAER handles online arrivals and topology changes gracefully,
// reaching a metastable regime where every batch settles within a
// logarithmic number of rounds and the load cap keeps holding. The
// scenario runs twice: on the incremental churn subsystem (the default
// path — per-batch topology updates cost O(changed), and the same
// Runner and graph serve the whole scenario) and on the legacy
// full-rebuild path (a fresh materialized graph per batch, preserving
// the historical numbers). Batches are inherently sequential (each
// carries the previous batch's churned loads), so each point runs a
// single trial whose rendering fans the per-batch outcomes out into
// rows.
func ExperimentDynamic(cfg SuiteConfig) (*Table, error) {
	dc := DefaultDynamicConfig(cfg)
	rebuild := dc
	rebuild.Rebuild = true
	spec := sweep.Spec{
		ID:    "E12",
		Title: "Dynamic arrivals with churn and re-randomized topology (future work, Section 4)",
		Columns: []string{"path", "batch", "arriving_balls", "pre_burned_servers", "rounds",
			"completed", "max_load", "cap", "mean_load", "unassigned"},
		Points: []sweep.Point{
			dynamicPoint(dc, "incremental", func(cfg SuiteConfig) uint64 { return cfg.TrialSeed(12, 1) }),
			dynamicPoint(rebuild, "rebuild", func(cfg SuiteConfig) uint64 { return cfg.TrialSeed(12) }),
		},
	}
	spec.Finalize = func(cfg SuiteConfig, outs []*sweep.Outcome, t *Table) error {
		t.AddNote("scenario: %d servers, batches of %d clients (d=%d), %d%% load churn between batches, topology re-randomized per batch",
			dc.NumServers, dc.BatchClients, dc.D, int(dc.ChurnFraction*100))
		t.AddNote("incremental = churn.Topology rewired in O(n) per batch on one reused Runner (internal/churn, trust-subset rows); rebuild = legacy fresh materialized graph per batch (biregular family, historical numbers)")
		t.AddNote("the two paths draw from different graph families (trust-subset vs biregular), so their rows are comparable in shape, not identical draws")
		t.AddNote("claim (conjecture): SAER sustains a metastable regime under dynamics (Section 4)")
		return nil
	}
	return sweep.Run(cfg, spec)
}
