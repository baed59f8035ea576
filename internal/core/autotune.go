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
