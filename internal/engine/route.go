package engine

import "math/bits"

// Router is the substrate of the routed round loop (see the client loop
// in internal/core): instead of every phase-1 worker bumping a private
// size-wide tally that a later pass merges, workers bucket each event's
// destination cell into per-(worker, shard) route lanes, and phase-2
// shard owners fold one shard's lanes at a time into the shared counts
// array. All writes to a shard's counts happen on the goroutine that
// owns the shard and land inside one contiguous 2^shift-cell window, so
// they are cache-blocked; folding costs O(routed events), and with the
// stamped tally (the global level of the two-level SPA accumulator, see
// Tally.BeginStamped) the round-end reset is a single O(1) epoch
// advance: no zeroing pass ever streams the counts array, so the loop's
// per-round resident set is one shard window even when the tally itself
// outgrows L2.
//
// Shards are contiguous cell ranges of width 2^shift: routing in the
// phase-A inner loop is a single shift (ShardOf). The width is derived
// from a target shard count so that the actual count lands in
// [target, 2·target] whenever size ≥ target — every owner gets work, and
// a finer split only shrinks the per-fold cache window.
//
// Determinism: a shard's fold visits lanes in (worker, append) order,
// which varies with the worker count — but a fold only produces per-cell
// sums and a duplicate-free touched set, both order-independent, so
// simulation results stay bit-for-bit identical across worker AND shard
// counts. The equivalence tests in internal/core sweep both.
type Router struct {
	workers int
	shards  int
	shift   uint
	// lanes[w*shards+s] holds the cells worker w routed to shard s this
	// round. Truncated (capacity kept) by ResetLanes.
	lanes [][]int32
	// touched[s] is the duplicate-free list of cells shard s's last fold
	// incremented — reused across rounds for its capacity.
	touched [][]int32
	// topoVersion is the topology version the lanes were last synced to
	// (see bipartite.Versioned and SyncTopologyVersion). Static
	// topologies leave it zero.
	topoVersion uint64
}

// NewRouter returns a Router for `workers` phase-A workers over a counts
// array of `size` cells, splitting it into about targetShards shards.
func NewRouter(workers, targetShards, size int) *Router {
	if workers < 1 {
		workers = 1
	}
	if targetShards < 1 {
		targetShards = 1
	}
	shift := uint(0)
	if size > targetShards {
		// Largest power-of-two width with ceil(size/width) ≥ targetShards:
		// width ≤ size/targetShards < 2·width, so the shard count is in
		// [targetShards, 2·targetShards].
		shift = uint(bits.Len64(uint64(size/targetShards))) - 1
	}
	width := 1 << shift
	shards := (size + width - 1) / width
	if shards < 1 {
		shards = 1
	}
	return &Router{
		workers: workers,
		shards:  shards,
		shift:   shift,
		lanes:   make([][]int32, workers*shards),
		touched: make([][]int32, shards),
	}
}

// Shards returns the number of shards the cell range was split into.
func (rt *Router) Shards() int { return rt.shards }

// Shift returns the routing shift: cell i belongs to shard i >> Shift().
// Phase-A inner loops use the shift directly rather than calling ShardOf
// per event.
func (rt *Router) Shift() uint { return rt.shift }

// ShardOf returns the shard owning cell i.
func (rt *Router) ShardOf(i int32) int { return int(i) >> rt.shift }

// Lanes returns worker w's shard-indexed lane view: phase A appends cell
// i to Lanes(w)[i>>Shift()]. The returned slice aliases the Router's
// state; each worker must only touch its own view.
func (rt *Router) Lanes(w int) [][]int32 {
	return rt.lanes[w*rt.shards : (w+1)*rt.shards : (w+1)*rt.shards]
}

// ResetLanes truncates every lane, keeping capacity. Call at the start of
// each routed round.
func (rt *Router) ResetLanes() {
	for i := range rt.lanes {
		rt.lanes[i] = rt.lanes[i][:0]
	}
}

// FoldShard folds every worker's lane of shard s into the stamped tally's
// merged view and returns the shard's duplicate-free touched list (cells
// first stamped this epoch). The tally must be in stamped mode
// (Tally.BeginStamped): a first touch is detected by the cell's merged
// stamp differing from the current epoch, so the shard's counts may hold
// arbitrary stale values — no zeroing pass ever precedes a fold, and the
// round-end reset is the O(1) Tally.StampedReset. Shard owners call
// FoldShard for distinct s concurrently: a cell belongs to exactly one
// shard, so each (count, stamp) pair is written by exactly one goroutine.
func (rt *Router) FoldShard(s int, t *Tally) []int32 {
	touched := rt.touched[s][:0]
	counts, stamps, epoch := t.merged, t.mergedStamp, t.epoch
	for w := 0; w < rt.workers; w++ {
		for _, i := range rt.lanes[w*rt.shards+s] {
			if stamps[i] == epoch {
				counts[i]++
			} else {
				stamps[i] = epoch
				counts[i] = 1
				touched = append(touched, i)
			}
		}
	}
	rt.touched[s] = touched
	return touched
}

// SyncTopologyVersion is the router's invalidation hook for mutable
// (versioned) topologies: when the version differs from the last synced
// one, any buffered lanes and touched lists describe destinations drawn
// from rows that no longer exist, so they are discarded. It reports
// whether an invalidation happened. Callers with a static topology never
// need to call this.
func (rt *Router) SyncTopologyVersion(v uint64) bool {
	if rt.topoVersion == v {
		return false
	}
	rt.topoVersion = v
	rt.Discard()
	return true
}

// Discard truncates every lane and touched list without touching the
// tally: the reset to pair with Tally.FullReset when a run abandoned a
// round between fold and reset.
func (rt *Router) Discard() {
	rt.ResetLanes()
	for s := range rt.touched {
		rt.touched[s] = rt.touched[s][:0]
	}
}
