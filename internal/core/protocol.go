package core

import (
	"repro/internal/bipartite"
	"repro/internal/engine"
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
	var received []int32 // the received totals, which only RAES keeps
	if c.Variant == RAES {
		received = make([]int32, m)
	}
	for lo, width := 0, 1<<r.router.Shift(); lo < m; lo += width {
		hi := min(lo+width, m)
		var total []int32
		if received != nil {
			total = received[lo:hi]
		}
		r.servers = append(r.servers, windowShard(c.Variant, r.capacity, lo, hi,
			r.load[lo:hi], total, r.burned[lo:hi]))
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

// decide is phase 2: each shard owner decides its shard's servers that
// received requests. A counted round is one dense pass over the shard's
// window of the byte tallies (decideCounted); a routed round applies
// the rule to the touched servers of the shard's fold, reading their
// counts off the stamped tally (applyBlock). The order in which shards
// run differs across shard counts and steal schedules but never leaks
// into results: each server's update depends only on its own state, and
// the burned/saturated partials are order-independent sums.
func (r *Runner) decide() (newlyBurned, saturated int, err error) {
	sp := telemetry.StartSpan(r.tel.decideHist())
	defer sp.End()
	clear(r.partialBurned)
	clear(r.partialSat)
	r.pool.StealRangeGrain(len(r.servers), 1, func(w, _, lo, hi int) {
		var nb, sat int
		for s := lo; s < hi; s++ {
			var b, st int
			if r.counted {
				b, st = r.servers[s].decideCounted(r.bytes, r.accepted, r.received)
			} else {
				b, st = r.servers[s].applyBlock(r.foldShard(s), r.tally.Merged(), r.accepted)
			}
			nb += b
			sat += st
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

// decideCounted decides a counted round for the shard in one dense pass
// over its window of the byte tallies: it applies the rule where it sums
// the counts, with no (server, count) list in between. The pass walks
// the window's servers in groups of 8 that start on a multiple of 8, in
// blocks of up to engine.SumBlock groups, each summed (and, on a tally
// that is not a view, zeroed) by SumWords. A group whose cells are all
// zero and hold no wrap entry is skipped; otherwise its eight counts are
// taken from the lanes, 256 is added per wrap entry, and the variant's
// rule runs, in place, on each of its servers. A zero count leaves a
// server as it was (see saer), so no branch depends on a count: only
// the accept bit and RAES's saturation are masked by count > 0. The
// group's accept bits are ORed into accepted, the accept set over every
// server, at once; the Runner's shard windows are whole 64-server words
// of the set, so owners of distinct shards decide concurrently.
// received, when not nil, gets every count (TrackNeighborhoods). A
// window start or end that is not a multiple of 8 (a LocalBank's or a
// wire server's windows, or the last router shard's end) leaves a
// partial group, which decideEdge decides. It returns the round's new
// burns and saturations.
func (s *ServerShard) decideCounted(bt *engine.ByteTally, accepted []uint64, received []int32) (newlyBurned, saturated int) {
	first := min((s.lo+7)&^7, s.hi)
	end := max(s.hi&^7, first)
	if s.lo < first {
		newlyBurned, saturated = s.decideEdge(bt, s.lo, first, accepted, received)
	}
	wraps := bt.Wraps(first)
	var even, odd [engine.SumBlock]uint64
	var burnedTotal, satTotal int
	for base := first; base < end; {
		words := min((end-base)/8, engine.SumBlock)
		bt.SumWords(base, words, &even, &odd)
		for q := range words {
			u := base + 8*q
			e, o := even[q], odd[q]
			if e|o == 0 && (len(wraps) == 0 || int(wraps[0]) >= u+8) {
				continue
			}
			var c [8]int32
			for j := 0; j < 8; j += 2 {
				c[j] = int32(e >> (8 * j) & 0xffff)
				c[j+1] = int32(o >> (8 * j) & 0xffff)
			}
			for ; len(wraps) > 0 && int(wraps[0]) < u+8; wraps = wraps[1:] {
				c[int(wraps[0])-u] += 256
			}
			if received != nil {
				copy(received[u:u+8], c[:])
			}
			var bits uint64
			j0 := u - s.lo
			if s.variant == SAER {
				for j, n := range c {
					acc, burned := s.saer(j0+j, n)
					bits |= b2u(acc && n > 0) << j
					burnedTotal += int(b2u(burned))
				}
			} else {
				for j, n := range c {
					acc, burned := s.raes(j0+j, n)
					bits |= b2u(acc && n > 0) << j
					satTotal += int(b2u(!acc && n > 0))
					burnedTotal += int(b2u(burned))
				}
			}
			accepted[u>>6] |= bits << (u & 63)
		}
		base += 8 * words
	}
	if s.variant == SAER {
		satTotal = burnedTotal
	}
	newlyBurned += burnedTotal
	saturated += satTotal
	if end < s.hi {
		b, st := s.decideEdge(bt, end, s.hi, accepted, received)
		newlyBurned += b
		saturated += st
	}
	return newlyBurned, saturated
}

// decideEdge is decideCounted over the window's servers [lo, hi), the
// part of one group of 8 that the window covers: SumCells sums their
// counts, wrap entries included, and the rule runs on each server as in
// the dense pass. It returns the servers' new burns and saturations.
func (s *ServerShard) decideEdge(bt *engine.ByteTally, lo, hi int, accepted []uint64, received []int32) (newlyBurned, saturated int) {
	base := lo &^ 7
	var c [8]int32
	bt.SumCells(base, lo, hi, &c, bt.Wraps(lo))
	if received != nil {
		copy(received[lo:hi], c[lo-base:hi-base])
	}
	var bits uint64
	for j := lo - base; j < hi-base; j++ {
		n := c[j]
		var acc, burned bool
		if s.variant == SAER {
			acc, burned = s.saer(base+j-s.lo, n)
		} else {
			acc, burned = s.raes(base+j-s.lo, n)
			saturated += int(b2u(!acc && n > 0))
		}
		bits |= b2u(acc && n > 0) << j
		newlyBurned += int(b2u(burned))
	}
	accepted[base>>6] |= bits << (base & 63)
	if s.variant == SAER {
		saturated = newlyBurned
	}
	return newlyBurned, saturated
}

// b2u is 1 for true and 0 for false.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
