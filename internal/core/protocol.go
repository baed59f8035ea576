package core

import (
	"repro/internal/bipartite"
	"repro/internal/telemetry"
)

// Runner is the in-process protocol execution: the shared client loop
// over server shards that live in this process. It exists as a separate
// type so that benchmarks and the experiment harness can reuse the
// allocations between trials (Reseed, SwapTopology, PatchTopology); most
// callers can simply use Config.Run.
//
// Each router shard owns one ServerShard over the same server window, and
// a round's phase 2 folds a shard's route lanes and decides exactly the
// servers the fold touched, in address order, on the goroutine that owns
// the shard — no decision lists. The one-lane run (one worker, one
// shard) scans its plain tally instead.
type Runner struct {
	clientLoop

	// servers are the in-process server shards. Their state slices are
	// windows of whole-server arrays — load and the loop's burned mirror
	// among them — so the client half reads burned flags and the final
	// loads without copies.
	servers []*ServerShard
	load    []int32

	partialBurned []int64
	partialSat    []int64
}

// Run executes one full protocol run of the configuration on topo and
// returns its Result. The run is deterministic in (topo, Variant, Seed)
// and independent of Workers, Shards, and — for topologies that describe
// the same edge multiset in the same per-client order, such as an
// implicit topology and its materialized CSR twin — of the topology
// representation.
func (c Config) Run(topo bipartite.Topology) (*Result, error) {
	r, err := c.NewRunner(topo)
	if err != nil {
		return nil, err
	}
	return r.Run(), nil
}

// NewRunner validates the configuration against topo and allocates the
// run state.
func (c Config) NewRunner(topo bipartite.Topology) (*Runner, error) {
	r := &Runner{}
	if err := r.init(topo, c, false); err != nil {
		return nil, err
	}
	m := topo.NumServers()
	r.load = make([]int32, m)
	received := make([]int32, m)
	width := m
	if r.router != nil {
		width = 1 << r.router.Shift()
	}
	for lo := 0; lo < m; lo += width {
		hi := min(lo+width, m)
		r.servers = append(r.servers, windowShard(c.Variant, r.capacity, lo, hi,
			r.load[lo:], received[lo:], r.burned[lo:]))
	}
	r.partialBurned = make([]int64, r.pool.Workers())
	r.partialSat = make([]int64, r.pool.Workers())
	return r, nil
}

// Run executes the protocol until completion or the round cap and returns
// the Result. Every Run starts from freshly reset state at the current
// seed (see Reseed).
func (r *Runner) Run() *Result {
	// The in-process server half never fails.
	res, _ := r.run(r)
	return res
}

func (r *Runner) reset(initialLoads []int) error {
	for _, sh := range r.servers {
		sh.resetFrom(initialLoads)
	}
	return nil
}

func (r *Runner) loads() ([]int32, error) { return r.load, nil }

// decide is phase 2. On the routed path the shard owners fold their
// lanes into the stamped tally and apply the rule to exactly the servers
// each fold touched, ascending within the shard; on the one-lane path
// the single shard scans the plain tally. The order in which shards run
// differs across shard counts and steal schedules but never leaks into
// results: each server's update depends only on its own state, and the
// burned/saturated partials are order-independent sums.
func (r *Runner) decide() (newlyBurned, saturated int, err error) {
	sp := telemetry.StartSpan(r.tel.decideHist())
	defer sp.End()
	if r.router == nil {
		sh := r.servers[0]
		for u, recv := range r.tally.Merged() {
			if recv != 0 {
				b, s := r.apply(sh, int32(u), recv)
				newlyBurned += b
				saturated += s
			}
		}
		return newlyBurned, saturated, nil
	}
	clear(r.partialBurned)
	clear(r.partialSat)
	counts := r.tally.Merged()
	r.pool.StealRangeGrain(len(r.servers), 1, func(w, _, lo, hi int) {
		var nb, sat int
		for s := lo; s < hi; s++ {
			sh := r.servers[s]
			for _, u := range r.router.FoldShard(s, r.tally) {
				b, st := r.apply(sh, u, counts[u])
				nb += b
				sat += st
			}
		}
		r.partialBurned[w] += int64(nb)
		r.partialSat[w] += int64(sat)
	})
	for w := range r.partialBurned {
		newlyBurned += int(r.partialBurned[w])
		saturated += int(r.partialSat[w])
	}
	return newlyBurned, saturated, nil
}

// apply runs shard sh's rule on server u, which received recv requests,
// and stamps it with the round's accept epoch when it accepted. It
// returns 1/0 counts for a new burn and a saturation.
func (r *Runner) apply(sh *ServerShard, u, recv int32) (newlyBurned, saturated int) {
	accepted, burned, sat := sh.rule(int(u)-sh.lo, recv)
	if accepted {
		r.acceptedEpoch[u] = r.roundEpoch
	}
	if burned {
		newlyBurned = 1
	}
	if sat {
		saturated = 1
	}
	return newlyBurned, saturated
}
