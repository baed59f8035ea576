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
// a round's phase 2 decides exactly the servers that received requests,
// in address order, on the goroutine that owns the shard — no decision
// lists.
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
	if err := r.init(topo, c); err != nil {
		return nil, err
	}
	m := topo.NumServers()
	r.load = make([]int32, m)
	received := make([]int32, m)
	for lo, width := 0, 1<<r.router.Shift(); lo < m; lo += width {
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

// reset rebuilds the server shards on the pool, one shard per task, as
// decide runs them.
func (r *Runner) reset(initialLoads []int) error {
	r.pool.StealRangeGrain(len(r.servers), 1, func(_, _, lo, hi int) {
		for _, sh := range r.servers[lo:hi] {
			sh.resetFrom(initialLoads)
		}
	})
	return nil
}

func (r *Runner) loads() ([]int32, error) { return r.load, nil }

// checkLoads accepts the final loads as they are: they are the Runner's
// own shards' state.
func (r *Runner) checkLoads([]int32, int64, *Result) error { return nil }

// decide is phase 2: each shard owner applies the rule to the blocks
// shardBlocks hands it, so to exactly the servers that received
// requests, ascending within the shard. The order in which shards run
// differs across shard counts and steal schedules but never leaks into
// results: each server's update depends only on its own state, and the
// burned/saturated partials are order-independent sums.
func (r *Runner) decide() (newlyBurned, saturated int, err error) {
	sp := telemetry.StartSpan(r.tel.decideHist())
	defer sp.End()
	clear(r.partialBurned)
	clear(r.partialSat)
	r.pool.StealRangeGrain(len(r.servers), 1, func(w, _, lo, hi int) {
		var nb, sat int
		for s := lo; s < hi; s++ {
			sh := r.servers[s]
			r.shardBlocks(w, s, func(servers, counts []int32) {
				b, st := sh.applyBlock(servers, counts, r.accepted)
				nb += b
				sat += st
			})
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
