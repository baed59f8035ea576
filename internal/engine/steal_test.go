package engine

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestStealRangeCoverage checks the scheduler's only hard invariant:
// every index of [0, n) is executed exactly once, for any worker count,
// with chunk bounds consistent with NumChunks/the reported (chunk, lo,
// hi) triples.
func TestStealRangeCoverage(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 4, 7} {
		for _, n := range []int{0, 1, 63, 64, 65, 1000, 4096, 100000} {
			p := NewPool(workers)
			hits := make([]int32, n)
			var chunks atomic.Int32
			p.StealRange(n, func(worker, chunk, lo, hi int) {
				if lo < 0 || hi > n || lo >= hi {
					t.Errorf("workers=%d n=%d: bad chunk bounds [%d, %d)", workers, n, lo, hi)
				}
				chunks.Add(1)
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d executed %d times", workers, n, i, h)
				}
			}
			if want := p.NumChunks(n); int(chunks.Load()) != want {
				t.Fatalf("workers=%d n=%d: %d chunks executed, NumChunks says %d",
					workers, n, chunks.Load(), want)
			}
		}
	}
}

// TestStealRangeChunkBoundsPure checks that chunk boundaries are a pure
// function of (n, workers): the (chunk → [lo, hi)) mapping must be
// identical across repeated runs regardless of which worker executed a
// chunk, since chunk-indexed outputs rely on it.
func TestStealRangeChunkBoundsPure(t *testing.T) {
	const n = 50000
	p := NewPool(4)
	var mu sync.Mutex
	ref := map[int][2]int{}
	for rep := 0; rep < 5; rep++ {
		p.StealRange(n, func(_, chunk, lo, hi int) {
			mu.Lock()
			defer mu.Unlock()
			if b, ok := ref[chunk]; ok {
				if b[0] != lo || b[1] != hi {
					t.Errorf("chunk %d bounds changed: [%d, %d) vs [%d, %d)", chunk, b[0], b[1], lo, hi)
				}
			} else {
				ref[chunk] = [2]int{lo, hi}
			}
		})
	}
}

// TestStealRangeStealsUnderSkew stalls worker 0's first chunk and checks
// that other workers actually steal from its deque — the scheduler's
// reason to exist — while coverage stays exact. Skipped on a single-CPU
// run only in the sense that stealing needs runnable peers: goroutines
// still interleave on one core because the stalled worker sleeps.
func TestStealRangeStealsUnderSkew(t *testing.T) {
	const workers = 4
	const n = 64 * workers * chunksPerWorker // every chunk exactly ChunkAlign wide
	p := NewPool(workers)
	var stalled atomic.Bool
	p.ChunkDelay = func(worker, chunk int) {
		if worker == 0 && stalled.CompareAndSwap(false, true) {
			time.Sleep(20 * time.Millisecond)
		}
	}
	defer func() { p.ChunkDelay = nil }()
	hits := make([]int32, n)
	executedBy := make([]int32, p.NumChunks(n))
	p.StealRange(n, func(worker, chunk, lo, hi int) {
		atomic.StoreInt32(&executedBy[chunk], int32(worker))
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d executed %d times under skew", i, h)
		}
	}
	// Worker 0 owned the first chunksPerWorker chunks; with its first
	// chunk stalled 20ms the other workers must have taken some of them.
	stolen := 0
	for chunk := 1; chunk < chunksPerWorker; chunk++ {
		if executedBy[chunk] != 0 {
			stolen++
		}
	}
	if stolen == 0 {
		t.Error("no chunk of the stalled worker was stolen")
	}
}

// TestStealRangeAllocs bounds what a phase allocates for itself. A
// warmed 2-worker phase over a prebuilt callback starts one goroutine,
// worker 1, and may allocate one object for it; worker 0 runs on the
// caller and the phase state lives in the Pool. An inline phase — one
// worker, or a range of one chunk — allocates nothing.
func TestStealRangeAllocs(t *testing.T) {
	var covered atomic.Int64
	fn := func(_, _, lo, hi int) { covered.Add(int64(hi - lo)) }
	for _, tc := range []struct {
		name      string
		workers   int
		n         int
		maxAllocs float64
	}{
		{"two workers", 2, 1 << 14, 1},
		{"one worker", 1, 1 << 14, 0},
		{"one chunk", 2, ChunkAlign, 0},
	} {
		p := NewPool(tc.workers)
		p.StealRange(tc.n, fn) // allocates the deques
		covered.Store(0)
		const runs = 100
		if got := testing.AllocsPerRun(runs, func() { p.StealRange(tc.n, fn) }); got > tc.maxAllocs {
			t.Errorf("%s: %.0f allocations per phase, want at most %.0f", tc.name, got, tc.maxAllocs)
		}
		// AllocsPerRun adds one warm-up call to its runs.
		if got, want := covered.Load(), int64((runs+1)*tc.n); got != want {
			t.Errorf("%s: phases covered %d indices, want %d", tc.name, got, want)
		}
	}
}
