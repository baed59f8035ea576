package sweep

import (
	"sync"
	"sync/atomic"

	"repro/internal/bipartite"
	"repro/internal/core"
)

// forEachTrial executes fn(trial) for trial = 0..trials-1 on a bounded
// worker pool of at most concurrentTrials(cfg, trials, g) goroutines,
// handing each worker a stable worker index. Work is distributed by an
// atomic counter, so no goroutine is ever spawned per trial. The first
// error (in trial order) is returned. g may be nil (custom points
// without a topology) — nil is never a huge point.
func forEachTrial(cfg Config, trials int, g bipartite.Topology, fn func(worker, trial int) error) error {
	if trials <= 0 {
		return nil
	}
	errs := make([]error, trials)
	done := cfg.trialCounter() // nil (and nil-receiver-safe) without telemetry
	workers := concurrentTrials(cfg, trials, g)
	if workers <= 1 {
		for i := 0; i < trials; i++ {
			errs[i] = fn(0, i)
			done.Inc(0)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= trials {
						return
					}
					errs[i] = fn(w, i)
					done.Inc(w)
				}
			}(w)
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// intraTrialMinClients is the point size from which one trial is big
// enough to amortize intra-trial parallelism (the sharded round
// pipeline's phase barriers); it matches the implicit-representation
// threshold — the sizes whose dense rounds stream megabytes per phase.
const intraTrialMinClients = ImplicitSizeThreshold

// hugePointMinClients is the point size from which concurrent trials
// stop paying: each trial's round state is tens of megabytes, so trials
// running side by side evict each other's tallies and frontiers from
// cache. Huge points run one trial at a time and hand the whole worker
// budget to that trial's Runner, whose work-stealing scheduler and
// sharded pipeline turn it into intra-trial parallelism.
const hugePointMinClients = 1 << 20

// concurrentTrials is the number of trials that run at once: the trial
// pool's worker count, the runners slice size, and the denominator of
// trialWorkers' budget split — all three must agree, so they share this
// one definition. Huge points serialize trials (see hugePointMinClients).
func concurrentTrials(cfg Config, trials int, g bipartite.Topology) int {
	if g != nil && g.NumClients() >= hugePointMinClients {
		return 1
	}
	return min(cfg.Parallelism(), max(trials, 1))
}

// trialWorkers splits the configured worker budget between trial-level
// and intra-trial parallelism: many small points saturate the budget
// with concurrent trials (each single-threaded — barriers cannot
// amortize on quick instances), while few big points hand the spare
// budget to each trial's Runner, whose sharded round pipeline and
// work-stealing scheduler turn it into intra-trial parallelism. Huge
// points (n ≥ hugePointMinClients) get the entire budget, since their
// trials run one at a time. The product of concurrent trials and
// per-trial workers never exceeds cfg.Parallelism().
func trialWorkers(cfg Config, trials int, g bipartite.Topology) int {
	if g == nil || g.NumClients() < intraTrialMinClients {
		return 1
	}
	return max(1, cfg.Parallelism()/concurrentTrials(cfg, trials, g))
}

// runPooledTrials runs independent Monte-Carlo trials of the same
// (graph, protocol) configuration concurrently on a shared pool of
// reusable Runners: each pool worker lazily builds one Runner and drives
// it through successive trials via Reseed, so graph validation and state
// allocation happen once per worker instead of once per trial. The worker budget is split by trialWorkers: small points
// run each trial single-threaded, big points with spare budget run each
// trial on a sharded multi-worker Runner. Results are returned in trial
// order and are bit-for-bit identical to fresh single-threaded runs for
// every split (the determinism contract of core.Runner).
func runPooledTrials(cfg Config, trials int, g bipartite.Topology, proto core.Config,
	seed func(trial int) uint64) ([]*core.Result, error) {
	proto.Workers = trialWorkers(cfg, trials, g)
	proto.Telemetry = cfg.Telemetry
	results := make([]*core.Result, trials)
	runners := make([]*core.Runner, concurrentTrials(cfg, trials, g))
	err := forEachTrial(cfg, trials, g, func(worker, i int) error {
		r := runners[worker]
		if r == nil {
			var e error
			r, e = proto.NewRunner(g)
			if e != nil {
				return e
			}
			runners[worker] = r
		}
		r.Reseed(seed(i))
		results[i] = r.Run()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}
