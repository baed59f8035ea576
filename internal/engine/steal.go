package engine

import "sync/atomic"

// The chunked work-stealing scheduler, the pool's only range scheduler.
// A static one-shard-per-worker split is optimal when every index costs
// the same, but the round loop's phases are skewed: a late round's
// frontier is tiny and unevenly expensive (row regeneration,
// burned-neighborhood scans), and a churned topology concentrates the
// surviving work on whichever clients kept their balls. A static split
// then leaves workers idle behind one straggler. StealRange instead
// over-decomposes [0, n) into cache-line-multiple chunks, deals them
// contiguously onto per-worker deques, and lets idle workers steal half
// of a victim's remaining chunks, so the phase finishes when the *work*
// runs out, not when the slowest static shard does. A single-worker pool
// runs the chunks inline, in order, with no deque traffic.
//
// Determinism contract: which worker executes a chunk is scheduling-
// dependent, so a callback may only produce (a) per-chunk outputs
// indexed by the chunk number — chunk boundaries are a pure function of
// (n, grain, worker count), and concatenating per-chunk outputs in chunk
// index order is identical for every steal schedule — or (b) per-worker
// accumulations whose fold is exact and order-independent (integer
// sums, maxima). The round loop in internal/core uses exactly these two
// shapes, which is what keeps results bit-for-bit identical across
// worker counts AND steal schedules (the steal-schedule equivalence
// suite pins it).

// ChunkAlign is the chunk-size granule of StealRange: 64 entities, i.e.
// 256 bytes of int32 payload — a cache-line multiple, so two workers
// never write the same line of a chunk-partitioned entity array.
const ChunkAlign = 64

// chunksPerWorker over-decomposes the range so deques have something to
// steal: 8 chunks per worker bounds the post-steal imbalance at ~1/8 of
// a worker's share while keeping the per-chunk scheduling overhead (one
// CAS) negligible against chunk execution.
const chunksPerWorker = 8

// chunkDeque is one worker's queue of pending chunks. Because chunks
// are dealt as one contiguous interval and steals take half of an
// interval, the queue is always an interval [lo, hi) of chunk indices,
// packed into a single atomic word (hi<<32 | lo): the owner pops lo
// with one CAS, a thief splits off the top half with one CAS, and no
// ABA hazard exists because intervals only ever shrink between resets.
// Padded to a granule so deques of adjacent workers don't false-share.
type chunkDeque struct {
	state atomic.Uint64
	_     [padGranule - 8]byte
}

func packInterval(lo, hi int) uint64 { return uint64(hi)<<32 | uint64(uint32(lo)) }

func unpackInterval(s uint64) (lo, hi int) { return int(uint32(s)), int(s >> 32) }

func (d *chunkDeque) reset(lo, hi int) { d.state.Store(packInterval(lo, hi)) }

// pop takes the bottom chunk of the deque.
func (d *chunkDeque) pop() (chunk int, ok bool) {
	for {
		s := d.state.Load()
		lo, hi := unpackInterval(s)
		if lo >= hi {
			return 0, false
		}
		if d.state.CompareAndSwap(s, packInterval(lo+1, hi)) {
			return lo, true
		}
	}
}

// stealHalf splits off the top half (rounded up) of the deque's
// remaining interval, leaving the bottom half to the owner.
func (d *chunkDeque) stealHalf() (lo, hi int, ok bool) {
	for {
		s := d.state.Load()
		vlo, vhi := unpackInterval(s)
		if vlo >= vhi {
			return 0, 0, false
		}
		mid := vlo + (vhi-vlo)/2
		if d.state.CompareAndSwap(s, packInterval(vlo, mid)) {
			return mid, vhi, true
		}
	}
}

// chunkSpan returns the chunk width used to split [0, n): the range is
// cut into about chunksPerWorker chunks per worker, rounded up to a
// multiple of grain. A pure function of (n, grain, workers) — chunk
// boundaries never depend on the steal schedule.
func (p *Pool) chunkSpan(n, grain int) int {
	if grain < 1 {
		grain = 1
	}
	target := (n + p.workers*chunksPerWorker - 1) / (p.workers * chunksPerWorker)
	span := (target + grain - 1) / grain * grain
	if span < grain {
		span = grain
	}
	return span
}

// NumChunks returns how many chunks StealRange splits [0, n) into.
// Callers sizing chunk-indexed output buffers use it; like the chunk
// boundaries it is a pure function of (n, workers).
func (p *Pool) NumChunks(n int) int { return p.NumChunksGrain(n, ChunkAlign) }

// NumChunksGrain is NumChunks with an explicit size granule (grain 1
// for ranges of heavyweight items such as router shards, where
// cache-line alignment of the index space is meaningless).
func (p *Pool) NumChunksGrain(n, grain int) int {
	if n <= 0 {
		return 0
	}
	span := p.chunkSpan(n, grain)
	return (n + span - 1) / span
}

// StealRange runs fn over [0, n) split into ChunkAlign-multiple chunks
// scheduled by work stealing: chunks are dealt contiguously onto
// per-worker deques and idle workers steal half of a victim's remaining
// interval. fn(worker, chunk, lo, hi) receives both the executing
// worker's index (valid for worker-indexed scratch: one goroutine per
// index, chunks of one worker run sequentially) and the chunk index
// (valid for chunk-indexed outputs; see the determinism contract above).
func (p *Pool) StealRange(n int, fn func(worker, chunk, lo, hi int)) {
	p.StealRangeGrain(n, ChunkAlign, fn)
}

// StealRangeGrain is StealRange with an explicit chunk-size granule.
// Worker 0 runs on the calling goroutine and the other workers on one
// goroutine each; the call returns once every chunk has run. The
// phase's state lives in the Pool, so a warmed multi-worker phase
// allocates only what its goroutine starts need, and an inline phase
// (one worker or one chunk) allocates nothing.
func (p *Pool) StealRangeGrain(n, grain int, fn func(worker, chunk, lo, hi int)) {
	if n <= 0 {
		return
	}
	span := p.chunkSpan(n, grain)
	numChunks := (n + span - 1) / span
	p.fn, p.n, p.span = fn, n, span
	if p.workers == 1 || numChunks == 1 {
		for c := 0; c < numChunks; c++ {
			p.runChunk(0, c)
		}
	} else {
		if p.deques == nil {
			p.deques = make([]chunkDeque, p.workers)
		}
		// Initial deal: contiguous chunk intervals, at most one apart in
		// size.
		for w := 0; w < p.workers; w++ {
			p.deques[w].reset(p.shard(numChunks, w))
		}
		p.phase.Add(p.workers - 1)
		for w := 1; w < p.workers; w++ {
			go p.spawned(w)
		}
		p.work(0)
		p.phase.Wait()
	}
	p.fn = nil // drop the callback's captures until the next phase
}

// runChunk runs the phase's callback on chunk c for worker w.
func (p *Pool) runChunk(w, c int) {
	if p.ChunkDelay != nil {
		p.ChunkDelay(w, c)
	}
	lo := c * p.span
	p.fn(w, c, lo, min(lo+p.span, p.n))
}

// spawned is a worker goroutine of the running phase.
func (p *Pool) spawned(w int) {
	defer p.phase.Done()
	p.work(w)
}

// work runs worker w's chunks: its own deque first, then halves stolen
// from the others, until every deque scans empty. Chunks still in
// flight then belong to the workers running them, so leaving loses no
// work.
func (p *Pool) work(w int) {
	own := &p.deques[w]
	for {
		c, ok := own.pop()
		if !ok {
			if !p.stealInto(w) {
				return
			}
			continue
		}
		p.runChunk(w, c)
	}
}

// stealInto scans the other workers' deques round-robin from w+1 and
// moves half of the first non-empty victim's interval onto w's (empty)
// deque. Reports whether anything was stolen.
func (p *Pool) stealInto(w int) bool {
	for off := 1; off < p.workers; off++ {
		victim := &p.deques[(w+off)%p.workers]
		if lo, hi, ok := victim.stealHalf(); ok {
			p.deques[w].reset(lo, hi)
			p.Steals.Inc(w)
			return true
		}
	}
	p.StealFails.Inc(w)
	return false
}
