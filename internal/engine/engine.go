// Package engine provides the parallel execution substrate for the
// synchronous round-based simulations.
//
// The paper's model is a lock-step synchronous network: in every round all
// clients act (phase 1), then all servers act (phase 2). The engine maps
// this onto goroutines with a data-parallel pattern: entity ranges are cut
// into chunks scheduled by work stealing (StealRange), and phase-1 events
// reach their cells in one of three ways. Route lanes bucket each event
// by the server shard that owns it (Router), and a stamped tally folds
// each shard's lanes with shard-local writes (Tally), marking every
// touched cell in a one-bit occupancy map from which the fold reads the
// shard's touched cells in ascending order. Per-worker byte tallies
// count each event in place (ByteTally), and each shard owner scans its
// window of all of them in ascending order. A single worker counts into
// a plain tally (Tally). The client loop in internal/core picks one per
// round.
// Because chunk boundaries depend only on (range length, worker count) and
// every entity owns a private random stream, simulation results are
// bit-for-bit identical for any worker count and any steal schedule — a
// property the tests check explicitly.
//
// Per-worker state that a hot loop writes gets a 128-byte granule of its
// own (padGranule): the chunk deques are padded to a granule each, and
// each worker's block of route-lane headers and each worker's byte tally
// sit at least one granule from any other worker's, so two cores never
// write the same cache line or the same adjacent-line pair.
package engine

import (
	"runtime"
	"sync"

	"repro/internal/telemetry"
)

// padGranule is the padding unit between per-worker hot state: two
// 64-byte cache lines, because Intel's L2 spatial prefetcher fetches
// lines in 128-byte-aligned pairs, so state one line apart can still
// share a pair and bounce between cores.
const padGranule = 128

// Pool executes data-parallel phases over a fixed number of workers.
// A Pool is safe for use from a single goroutine at a time; concurrent
// calls to StealRange on the same Pool must not overlap, and a phase's
// callback must not start another phase on its Pool.
type Pool struct {
	workers int

	// deques are the per-worker chunk queues of the work-stealing
	// scheduler (see steal.go), allocated on first StealRange use.
	deques []chunkDeque

	// The running phase: its callback, range length and chunk span, and
	// the WaitGroup its spawned workers report to. Phases never overlap,
	// so one set serves every StealRange call, and a phase allocates
	// nothing for its own bookkeeping.
	fn    func(worker, chunk, lo, hi int)
	n     int
	span  int
	phase sync.WaitGroup

	// ChunkDelay, when non-nil, is invoked before every chunk a
	// StealRange worker executes. It exists solely so tests can skew the
	// steal schedule (stall one worker and force the others to steal its
	// chunks) and assert that results stay bit-for-bit identical.
	ChunkDelay func(worker, chunk int)

	// Steals and StealFails, when non-nil, count successful chunk steals
	// and empty victim scans (a worker going idle because every deque was
	// drained). Both sit on the steal slow path only — the pop fast path
	// never touches them — so instrumented and uninstrumented pools run
	// the hot loop identically. Set them before the first StealRange call
	// (core wires them from Config.Telemetry).
	Steals, StealFails *telemetry.Counter
}

// NewPool returns a Pool with the requested number of workers. A value of
// zero (or negative) selects runtime.GOMAXPROCS(0).
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Workers returns the worker count the pool was configured with.
func (p *Pool) Workers() int { return p.workers }

// shard returns the half-open range assigned to worker w out of p.workers
// when splitting [0, n). Shards are contiguous and differ in size by at
// most one, so the mapping is a pure function of (n, workers, w).
func (p *Pool) shard(n, w int) (lo, hi int) {
	per := n / p.workers
	rem := n % p.workers
	lo = w*per + min(w, rem)
	size := per
	if w < rem {
		size++
	}
	return lo, lo + size
}

// Tally is the per-round request counter of one counts array, in one of
// two modes fixed by its owner:
//
//   - Plain (the default): the counts array is written directly by a
//     single goroutine and Reset zeroes it. The one-lane round loop —
//     one worker, one server shard — counts straight into it and scans
//     it, which beats any per-event bookkeeping when nothing runs in
//     parallel.
//
//   - Stamped: after BeginStamped, a one-bit occupancy map guards the
//     counts — a cell's count is valid only while its bit is set, and
//     StampedReset clears the bitmap (size/8 bytes, 32× less than the
//     counts array). This is the global level of the two-level SPA
//     tally used by the routed round loop: Router.FoldShard writes
//     counts straight into the array, detecting first touches by the bit
//     instead of requiring pre-zeroed cells, so no zeroing pass ever
//     streams the counts array — the tally's resident set per fold is
//     one shard window even when size outgrows L2 — and it reads the
//     shard's touched cells off the bitmap in ascending order.
//
// Both modes report identical counts through ReceivedAt for identical
// adds.
type Tally struct {
	merged []int32

	// occupied is the stamped mode's occupancy bitmap: bit i&63 of word
	// i>>6 is set ⇔ cell i was touched since the last reset, i.e.
	// merged[i] is current. Nil in plain mode.
	occupied []uint64
}

// NewTally returns a plain Tally of size cells. The pool argument names
// the pool whose phases fill the tally; the tally itself keeps no
// per-worker state, since every cell has a single writer (the plain
// tally's one lane, or the stamped tally's shard owner).
func NewTally(_ *Pool, size int) *Tally {
	return &Tally{merged: make([]int32, size)}
}

// Merged returns the counts array. In stamped mode a cell's entry is
// only meaningful while its occupancy bit is set; read through
// ReceivedAt when that is not known.
func (t *Tally) Merged() []int32 { return t.merged }

// ReceivedAt returns the count of cell i this round. In stamped mode a
// cell not touched since the last reset reads as zero without having
// been zeroed.
func (t *Tally) ReceivedAt(i int32) int32 {
	if t.occupied != nil && t.occupied[i>>6]&(1<<(i&63)) == 0 {
		return 0
	}
	return t.merged[i]
}

// IsStamped reports whether the tally is in stamped mode.
func (t *Tally) IsStamped() bool { return t.occupied != nil }

// BeginStamped switches the tally into stamped mode: a cell's count is
// valid only while its occupancy bit is set, so folds that write counts
// directly into the array (Router.FoldShard) detect first touches by
// the bit instead of requiring pre-zeroed cells, and StampedReset
// invalidates everything by clearing the bitmap. Stamped mode is a
// property of the caller's pipeline, not of one run: Reset keeps it.
func (t *Tally) BeginStamped() {
	if t.occupied == nil {
		t.occupied = make([]uint64, (len(t.merged)+63)/64)
	}
	t.StampedReset()
}

// StampedReset invalidates every count of a stamped tally by clearing
// its occupancy bitmap — one bit per cell, so size/8 bytes — without
// writing the counts array. Afterwards every cell reads 0 and the next
// fold starts clean.
func (t *Tally) StampedReset() { clear(t.occupied) }

// Stamp records counts[i] as the count of cells[i] in a stamped tally,
// for a round whose counts were summed elsewhere (ByteTally.Scan), so
// ReceivedAt reads them. Like a fold, it writes only the listed cells
// and their occupancy words: owners of distinct 64-cell-aligned windows
// stamp concurrently.
func (t *Tally) Stamp(cells, counts []int32) {
	for i, u := range cells {
		t.merged[u] = counts[i]
		t.occupied[u>>6] |= 1 << (u & 63)
	}
}

// Reset clears every count: a bitmap clear in stamped mode, a pass over
// the array in plain mode.
func (t *Tally) Reset() {
	if t.occupied != nil {
		t.StampedReset()
		return
	}
	clear(t.merged)
}
