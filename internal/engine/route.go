package engine

import "math/bits"

// Router is the substrate of the routed round loop (see the client loop
// in internal/core): instead of every phase-1 worker bumping a private
// size-wide tally that a later pass merges, workers bucket each event's
// destination cell into per-(worker, shard) route lanes, and phase-2
// shard owners fold one shard's lanes at a time into the shared counts
// array. All writes to a shard's counts happen on the goroutine that
// owns the shard and land inside one contiguous 2^shift-cell window, so
// they are cache-blocked; folding costs O(routed events + window/64),
// and with the stamped tally (the global level of the two-level SPA
// accumulator, see Tally) the round-end reset clears a one-bit-per-cell
// occupancy map: no zeroing pass ever streams the counts array, so the
// loop's per-round resident set is one shard window even when the tally
// itself outgrows L2.
//
// Shards are contiguous cell ranges of width 2^shift: routing in the
// phase-A inner loop is a single shift (ShardOf). The width is at least
// 64 cells — one occupancy word — so a window starts on a word boundary
// and concurrent folds never write the same bitmap word. Above that
// floor it is derived from a target shard count so that the actual
// count lands in [target, 2·target] whenever size ≥ 64·target — every
// owner gets work, and a finer split only shrinks the per-fold cache
// window.
//
// Determinism: a shard's fold visits lanes in (worker, append) order,
// which varies with the worker count — but a fold only produces per-cell
// sums and the set of touched cells, which it lists in ascending order
// off the occupancy bitmap, so simulation results stay bit-for-bit
// identical across worker AND shard counts. The equivalence tests in
// internal/core sweep both.
//
// Layout: per-worker state that a hot loop writes gets a padding
// granule (padGranule) of its own. Every routed ball rewrites its lane
// header's length, so the workers' blocks of lane headers sit at least
// one granule apart; with two shards, two unpadded blocks of 48 bytes
// would share a line and bounce it between cores once per ball.
type Router struct {
	workers int
	shards  int
	shift   uint
	// lanes holds every worker's lane headers in one backing array:
	// lanes[laneBase(w)+s] holds the cells worker w routed to shard s
	// this round, and lanePad unused (nil) headers lie before, between
	// and after the workers' blocks. Truncated (capacity kept) by
	// ResetLanes.
	lanes [][]int32
	// touched[s] is the ascending list of cells shard s's last fold
	// found occupied — reused across rounds for its capacity.
	touched [][]int32
}

// minShardShift is log2 of the narrowest shard window: one 64-cell
// occupancy word, so every window starts on a word boundary.
const minShardShift = 6

// lanePad is the fewest slice headers (three words each) that span a
// whole padding granule: the gap Router keeps around each worker's block
// of lane headers, whatever the backing array's alignment.
const lanePad = (padGranule + sliceHeaderSize - 1) / sliceHeaderSize

// sliceHeaderSize is the size of a slice header: pointer, length and
// capacity.
const sliceHeaderSize = 3 * bits.UintSize / 8

// NewRouter returns a Router for `workers` phase-A workers over a counts
// array of `size` cells, splitting it into about targetShards shards of
// at least 64 cells. A target of one (or less) yields exactly one shard.
func NewRouter(workers, targetShards, size int) *Router {
	if workers < 1 {
		workers = 1
	}
	// Past one shard: the largest power-of-two width ≤ size/targetShards,
	// so that width ≤ size/targetShards < 2·width and the shard count is
	// in [targetShards, 2·targetShards] — unless that is under the
	// 64-cell floor, which leaves fewer shards. One shard: the smallest
	// power-of-two width ≥ size, so the window covers every cell.
	shift := uint(minShardShift)
	if targetShards <= 1 {
		shift = max(shift, uint(bits.Len64(uint64(max(size, 1)-1))))
	} else if per := size / targetShards; per > 0 {
		shift = max(shift, uint(bits.Len64(uint64(per)))-1)
	}
	width := 1 << shift
	shards := max((size+width-1)/width, 1)
	return &Router{
		workers: workers,
		shards:  shards,
		shift:   shift,
		lanes:   make([][]int32, lanePad+workers*(shards+lanePad)),
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
	lo := rt.laneBase(w)
	return rt.lanes[lo : lo+rt.shards : lo+rt.shards]
}

// laneBase is the index of worker w's first lane header in rt.lanes.
func (rt *Router) laneBase(w int) int { return lanePad + w*(rt.shards+lanePad) }

// ResetLanes truncates every lane, keeping capacity. Call at the start of
// each routed round.
func (rt *Router) ResetLanes() {
	for i := range rt.lanes {
		rt.lanes[i] = rt.lanes[i][:0]
	}
}

// FoldShard folds every worker's lane of shard s into the stamped tally
// and returns the shard's touched cells, ascending and duplicate-free.
// A first touch is detected by the cell's occupancy bit, so the shard's
// counts may hold arbitrary stale values — no zeroing pass ever precedes
// a fold.
// The fold takes no branch on the bit: the cell's bit, as a 0/1 mask,
// keeps or drops the old count before the add, so a first touch and a
// repeat cost the same and a ball's branch never mispredicts. The
// touched list is then read off the occupancy words of the shard's
// window, at O(window/64 + touched) cost, so it comes out in address
// order whatever order the lanes arrived in. Shard owners call
// FoldShard for distinct s concurrently: a cell belongs to exactly one
// shard and a window spans whole occupancy words, so each count and
// each bitmap word is written by exactly one goroutine.
func (rt *Router) FoldShard(s int, t *Tally) []int32 {
	counts, occ := t.merged, t.occupied
	for w := 0; w < rt.workers; w++ {
		for _, i := range rt.lanes[rt.laneBase(w)+s] {
			word := occ[i>>6]
			set := int32(word>>(i&63)) & 1
			counts[i] = counts[i]&-set + 1
			occ[i>>6] = word | 1<<(i&63)
		}
	}
	touched := rt.touched[s][:0]
	lo := s << (rt.shift - minShardShift)
	hi := min(lo+1<<(rt.shift-minShardShift), len(occ))
	for k, word := range occ[lo:hi] {
		base := int32(lo+k) << 6
		for ; word != 0; word &= word - 1 {
			touched = append(touched, base+int32(bits.TrailingZeros64(word)))
		}
	}
	rt.touched[s] = touched
	return touched
}
