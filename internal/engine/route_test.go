package engine

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/rng"
)

// TestRouterGeometry pins the shard layout: a window is a power of two
// of at least 64 cells (one occupancy word, so concurrent folds never
// share a bitmap word), and the shard count lands in [target, 2·target]
// whenever that floor leaves room for it (size ≥ 64·target); a target
// of one gives one shard (TestRouterOneShard).
func TestRouterGeometry(t *testing.T) {
	for _, target := range []int{1, 2, 3, 4, 7, 8, 16} {
		for _, size := range []int{1, 2, 7, 16, 63, 64, 65, 100, 1000, 1 << 16, 1<<16 + 1} {
			rt := NewRouter(3, target, size)
			width := 1 << rt.Shift()
			if width < 64 {
				t.Fatalf("target=%d size=%d: shard width %d < 64", target, size, width)
			}
			if want := (size + width - 1) / width; rt.Shards() != max(want, 1) {
				t.Fatalf("target=%d size=%d: %d shards of width %d", target, size, rt.Shards(), width)
			}
			if size >= 64*target {
				if rt.Shards() < target || rt.Shards() > 2*target {
					t.Fatalf("target=%d size=%d: %d shards outside [target, 2·target]",
						target, size, rt.Shards())
				}
			}
			// Every cell must map to a valid shard, and the mapping must be
			// contiguous and non-decreasing.
			last := 0
			for _, i := range []int32{0, int32(size / 2), int32(size - 1)} {
				s := rt.ShardOf(i)
				if s < 0 || s >= rt.Shards() {
					t.Fatalf("target=%d size=%d: cell %d maps to shard %d of %d",
						target, size, i, s, rt.Shards())
				}
				if s < last {
					t.Fatalf("target=%d size=%d: shard mapping not monotone", target, size)
				}
				last = s
			}
		}
	}
}

// TestRouterOneShard pins that a one-shard target yields one window
// covering every cell at any size, a power of two or not, so a
// one-worker run asked for one shard gets it.
func TestRouterOneShard(t *testing.T) {
	for _, size := range []int{1, 63, 64, 65, 260, 700, 1000, 1024, 1<<20 + 1} {
		rt := NewRouter(1, 1, size)
		if rt.Shards() != 1 {
			t.Fatalf("size=%d: %d shards of width %d, want 1", size, rt.Shards(), 1<<rt.Shift())
		}
		if width := 1 << rt.Shift(); width < max(size, 64) || width >= 2*max(size, 64) {
			t.Fatalf("size=%d: width %d, want the smallest power of two ≥ max(size, 64)", size, width)
		}
		if s := rt.ShardOf(int32(size - 1)); s != 0 {
			t.Fatalf("size=%d: last cell maps to shard %d", size, s)
		}
	}
}

// TestRouterLanesDoNotShareCacheLines pins the lane layout: the draw
// rewrites a lane header's length on every routed ball, so no 128-byte
// aligned pair of cache lines, the unit Intel's L2 spatial prefetcher
// fetches, may hold lane headers of two workers, whatever the shard
// count and the backing array's alignment. Every view spans exactly the
// router's shards.
func TestRouterLanesDoNotShareCacheLines(t *testing.T) {
	const line = 128
	header := unsafe.Sizeof([]int32(nil))
	for _, workers := range []int{2, 3, 4} {
		for _, target := range []int{1, 2, 3, 8} {
			for _, size := range []int{64, 1000, 1 << 16} {
				rt := NewRouter(workers, target, size)
				owner := map[uintptr]int{}
				for w := 0; w < workers; w++ {
					lanes := rt.Lanes(w)
					if len(lanes) != rt.Shards() || cap(lanes) != rt.Shards() {
						t.Fatalf("workers=%d target=%d size=%d: worker %d view has len %d cap %d, want %d",
							workers, target, size, w, len(lanes), cap(lanes), rt.Shards())
					}
					lo := uintptr(unsafe.Pointer(unsafe.SliceData(lanes)))
					hi := lo + uintptr(len(lanes))*header
					for l := lo / line; l <= (hi-1)/line; l++ {
						if o, ok := owner[l]; ok && o != w {
							t.Fatalf("workers=%d target=%d size=%d (%d shards): a 128-byte line pair holds lane headers of workers %d and %d",
								workers, target, size, rt.Shards(), o, w)
						}
						owner[l] = w
					}
				}
			}
		}
	}
}

// TestRouterConcurrentFold runs routed rounds the way the client loop
// does: the workers append random cells into their own lane views at
// the same time, then shard owners fold on a Pool. Counts and touched
// lists must equal a dense reference. Run it under -race -count=10.
func TestRouterConcurrentFold(t *testing.T) {
	const size = 5000
	for _, workers := range []int{2, 3, 4} {
		for _, target := range []int{1, 2, 8} {
			rt := NewRouter(workers, target, size)
			ta := stampedTally(size)
			pool := NewPool(workers)
			src := rng.New(uint64(10*workers + target))
			for round := 0; round < 3; round++ {
				adds := make([][]int32, workers)
				var all []int32
				for w := range adds {
					for k := src.Intn(3 * size); k > 0; k-- {
						adds[w] = append(adds[w], int32(src.Intn(size)))
					}
					all = append(all, adds[w]...)
				}
				rt.ResetLanes()
				var wg sync.WaitGroup
				for w := range adds {
					wg.Add(1)
					go func() {
						defer wg.Done()
						lanes := rt.Lanes(w)
						for _, i := range adds[w] {
							s := int(i) >> rt.Shift()
							lanes[s] = append(lanes[s], i)
						}
					}()
				}
				wg.Wait()
				touched := make([][]int32, rt.Shards())
				pool.StealRangeGrain(rt.Shards(), 1, func(_, _, lo, hi int) {
					for s := lo; s < hi; s++ {
						touched[s] = rt.FoldShard(s, ta)
					}
				})
				ref := denseReference(size, all)
				var want []int32
				for i, c := range ref {
					if got := ta.ReceivedAt(int32(i)); got != c {
						t.Fatalf("workers=%d target=%d round %d: ReceivedAt(%d) = %d, want %d",
							workers, target, round, i, got, c)
					}
					if c > 0 {
						want = append(want, int32(i))
					}
				}
				if got := slices.Concat(touched...); !slices.Equal(got, want) {
					t.Fatalf("workers=%d target=%d round %d: touched lists %v, want %v",
						workers, target, round, got, want)
				}
				ta.StampedReset()
			}
		}
	}
}

// stampedTally builds a stamped Tally of the given size, the mode
// FoldShard requires.
func stampedTally(size int) *Tally {
	ta := NewTally(NewPool(1), size)
	ta.BeginStamped()
	return ta
}

// TestRouterFoldMatchesDense drives random routed rounds through
// FoldShard on a stamped tally and checks counts and touched lists
// against a plain dense accumulation. Between rounds only StampedReset
// runs — the counts are never zeroed, which is exactly the stale-value
// situation the occupancy bits must mask.
func TestRouterFoldMatchesDense(t *testing.T) {
	const size = 500
	const workers = 3
	rt := NewRouter(workers, 4, size)
	ta := stampedTally(size)
	src := rng.New(7)
	for round := 0; round < 5; round++ {
		rt.ResetLanes()
		adds := make([]int32, 0, 300)
		for k := 0; k < 100+round*50; k++ {
			adds = append(adds, int32(src.Intn(size)))
		}
		for k, i := range adds {
			lanes := rt.Lanes(k % workers)
			s := int(i) >> rt.Shift()
			lanes[s] = append(lanes[s], i)
		}
		ref := denseReference(size, adds)
		var touchedTotal int
		for s := 0; s < rt.Shards(); s++ {
			touched := rt.FoldShard(s, ta)
			touchedTotal += len(touched)
			seen := make(map[int32]bool, len(touched))
			for _, i := range touched {
				if seen[i] {
					t.Fatalf("round %d shard %d: cell %d twice in touched", round, s, i)
				}
				seen[i] = true
				if rt.ShardOf(i) != s {
					t.Fatalf("round %d: cell %d in shard %d's touched list, owned by %d",
						round, i, s, rt.ShardOf(i))
				}
			}
		}
		distinct := 0
		for i := int32(0); i < size; i++ {
			if got := ta.ReceivedAt(i); got != ref[i] {
				t.Fatalf("round %d: ReceivedAt(%d) = %d, want %d", round, i, got, ref[i])
			}
			if ref[i] > 0 {
				distinct++
			}
		}
		if touchedTotal != distinct {
			t.Fatalf("round %d: %d touched cells, want %d", round, touchedTotal, distinct)
		}
		ta.StampedReset()
		for i := int32(0); i < size; i++ {
			if got := ta.ReceivedAt(i); got != 0 {
				t.Fatalf("round %d: ReceivedAt(%d) = %d after StampedReset", round, i, got)
			}
		}
	}
}

func TestRouterDiscard(t *testing.T) {
	rt := NewRouter(2, 2, 64)
	ta := stampedTally(64)
	lanes := rt.Lanes(0)
	for _, i := range []int32{1, 1, 40, 63} {
		lanes[rt.ShardOf(i)] = append(lanes[rt.ShardOf(i)], i)
	}
	for s := 0; s < rt.Shards(); s++ {
		rt.FoldShard(s, ta)
	}
	// Simulate the early-exit path: the tally is fully reset (a bitmap
	// clear), the Router is discarded, and the next round must start
	// clean.
	ta.StampedReset()
	rt.Discard()
	rt.ResetLanes()
	for s := 0; s < rt.Shards(); s++ {
		if got := rt.FoldShard(s, ta); len(got) != 0 {
			t.Fatalf("shard %d folded %v after Discard", s, got)
		}
	}
	for i := int32(0); i < 64; i++ {
		if got := ta.ReceivedAt(i); got != 0 {
			t.Fatalf("ReceivedAt(%d) = %d after Discard + empty fold", i, got)
		}
	}
}

// Property: folded counts are independent of the worker count and the
// target shard count, and every shard's FoldShard list is strictly
// ascending, lies inside the shard's window and holds exactly the
// window's cells with a non-zero count.
func TestQuickRouterInvariance(t *testing.T) {
	f := func(seed uint64, wRaw, tRaw, sizeRaw uint8) bool {
		workers := 1 + int(wRaw%6)
		target := 1 + int(tRaw%9)
		size := 16 + int(sizeRaw)
		rt := NewRouter(workers, target, size)
		ta := stampedTally(size)
		src := rng.New(seed)
		adds := make([]int32, src.Intn(4*size))
		for k := range adds {
			adds[k] = int32(src.Intn(size))
			lanes := rt.Lanes(k % workers)
			s := int(adds[k]) >> rt.Shift()
			lanes[s] = append(lanes[s], adds[k])
		}
		var listed []int32
		for s := 0; s < rt.Shards(); s++ {
			for k, i := range rt.FoldShard(s, ta) {
				if rt.ShardOf(i) != s || (k > 0 && i <= listed[len(listed)-1]) {
					t.Logf("size=%d shard %d: cell %d out of window or order", size, s, i)
					return false
				}
				listed = append(listed, i)
			}
		}
		ref := denseReference(size, adds)
		for i := range ref {
			if ta.ReceivedAt(int32(i)) != ref[i] {
				return false
			}
			if ref[i] > 0 {
				if len(listed) == 0 || listed[0] != int32(i) {
					t.Logf("size=%d: cell %d has count %d but is not next in the lists", size, i, ref[i])
					return false
				}
				listed = listed[1:]
			}
		}
		return len(listed) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// BenchmarkFoldShard measures the fold layer as the routed round loop
// runs it every round: the stamped tally is reset, then every shard's
// lanes — two workers', filled before the timer starts — are folded and
// the shard's ascending touched list read off the occupancy bitmap.
// "round1" routes 2 balls per server (round 1 of an n = m instance at
// d = 2), "tail" 1% of that (a late round). Shard windows are 2^14
// cells, the autotuner's window at its 256 KiB L2 fallback. Reports
// ns per routed ball.
func BenchmarkFoldShard(b *testing.B) {
	for _, m := range []int{1 << 16, 1 << 20} {
		for _, load := range []struct {
			name  string
			balls int
		}{{"round1", 2 * m}, {"tail", 2 * m / 100}} {
			b.Run(fmt.Sprintf("m=%d/%s", m, load.name), func(b *testing.B) {
				rt := NewRouter(2, m>>14, m)
				ta := stampedTally(m)
				src := rng.New(1)
				for k := 0; k < load.balls; k++ {
					i := int32(src.Intn(m))
					lanes := rt.Lanes(2 * k / load.balls)
					lanes[rt.ShardOf(i)] = append(lanes[rt.ShardOf(i)], i)
				}
				b.ResetTimer()
				for it := 0; it < b.N; it++ {
					ta.StampedReset()
					for s := 0; s < rt.Shards(); s++ {
						rt.FoldShard(s, ta)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(load.balls), "ns/ball")
			})
		}
	}
}

// BenchmarkRouteLanes measures the route step as the draw runs it: two
// goroutines each append 2^16 pre-drawn destinations into their own
// Lanes(w) at the same time, at m = 2^16 split into 2, 4 and 8 shards.
// Lanes keep their capacity across iterations, as across rounds. Run it
// at -cpu 2 so that the two workers run on two cores. Reports ns per
// routed ball.
func BenchmarkRouteLanes(b *testing.B) {
	const m, workers, perWorker = 1 << 16, 2, 1 << 16
	for _, target := range []int{2, 4, 8} {
		rt := NewRouter(workers, target, m)
		b.Run(fmt.Sprintf("shards=%d", rt.Shards()), func(b *testing.B) {
			src := rng.New(1)
			dests := make([][]int32, workers)
			for w := range dests {
				dests[w] = make([]int32, perWorker)
				for k := range dests[w] {
					dests[w][k] = int32(src.Intn(m))
				}
			}
			var wg sync.WaitGroup
			route := func(w int) {
				defer wg.Done()
				lanes, shift := rt.Lanes(w), rt.Shift()
				for _, u := range dests[w] {
					s := int(u) >> shift
					lanes[s] = append(lanes[s], u)
				}
			}
			b.ResetTimer()
			for it := 0; it < b.N; it++ {
				rt.ResetLanes()
				wg.Add(workers)
				for w := 0; w < workers; w++ {
					go route(w)
				}
				wg.Wait()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(workers*perWorker), "ns/ball")
		})
	}
}
