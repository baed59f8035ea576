package core

import "repro/internal/engine"

// AutotuneShards derives the routed round loop's target shard count for
// an instance with n clients, m servers, and the given worker count,
// sizing shard windows against the probed cache hierarchy. It fills
// Config.Shards when the caller leaves it at zero.
//
// The function is pure: for fixed inputs it always returns the same
// count, so runs stay reproducible on a fixed machine, and the count it
// picks is — like an explicit Shards — bit-for-bit result-neutral.
// TestAutotuneDeterminism pins the table.
//
// The heuristics are calibrated on the measurements in PERFORMANCE.md:
//
//   - A fold window, budgeted at 8 B per cell, should fit half of L2,
//     leaving the rest for the route lanes streaming in.
//     Sharding on a single worker is pure cache blocking, so it only
//     pays once the whole tally outgrows L2 (measured: 6–8% loss at
//     m = 2¹⁸ where the tally just fits, 1.2× win at m = 2²⁰ where it
//     doesn't); below that a one-worker run stays on one shard, the
//     one-lane path. Multi-worker runs always shard — phase-2
//     parallelism — and at least as finely as the cache asks.
//   - The shard count is capped so phase 1 still routes enough events
//     per shard for the fold loop to amortize (≥ ~256 clients' worth).
func AutotuneShards(n, m, workers int, cache engine.CacheInfo) int {
	// Bytes budgeted per tally cell: the 4 B count and its 1-bit
	// occupancy flag, the rest headroom for the cell's share of the
	// route lanes and the fold's touched list. The rule was calibrated
	// with this budget, so keeping it keeps the shard counts.
	const perCell = 8
	l2 := cache.L2
	if l2 <= 0 {
		l2 = 256 << 10
	}
	shardCells := max(l2/2/perCell, 1<<12)
	shards := 1
	switch {
	case workers > 1:
		shards = max(workers, (m+shardCells-1)/shardCells)
	case m*perCell > l2:
		shards = (m + shardCells - 1) / shardCells
	}
	return min(shards, max(workers, n/256))
}

// directCount reports whether a round that draws balls balls by point
// query (pointQuery) over m servers counts them into per-worker byte
// tallies (engine.ByteTally) instead of routing them into lanes. Like
// AutotuneShards it is a pure function of its inputs and the probed L2,
// and either answer is bit-for-bit result-neutral; TestDirectCountRule
// pins it.
//
// Counting writes one byte per ball where routing writes a 4-byte lane
// entry that the fold reads back, so it pays while the tallies stay
// cached and the scans' pass over all of them is no larger than the
// lanes would be:
//
//   - Two workers or more (and at most engine.MaxByteTallyWorkers). One
//     worker keeps the one-lane path, which already counts without
//     routing, or routes on a Driver.
//   - Point-query draws only. A row or CSR draw streams rows through
//     the cache past the tallies: on CSR Δ = 16 graphs at n = m,
//     counting read 40% and 38% slower than routing at m = 2²¹ and
//     2²² (PERFORMANCE.md, "Counted rounds").
//   - m ≤ 2·L2: each worker's tally is m bytes, written at random by
//     the draw. With a 2 MiB L2 at n = m and Δ = log₂²n, counting read
//     0–19% faster than routing at m = 2¹⁸…2²² and 4% and 8% slower
//     at 2²³ and 2²⁴.
//   - workers·m ≤ 4·balls: the tallies are no larger than the lanes the
//     round would fill, so a late round with few balls left, whose
//     lanes and fold cost little, routes.
func directCount(workers int, balls int64, m int, pointQuery bool, cache engine.CacheInfo) bool {
	l2 := cache.L2
	if l2 <= 0 {
		l2 = 256 << 10
	}
	return pointQuery && workers >= 2 && workers <= engine.MaxByteTallyWorkers &&
		m <= 2*l2 && int64(workers)*int64(m) <= 4*balls
}
