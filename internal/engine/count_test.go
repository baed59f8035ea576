package engine

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/rng"
)

// byteTallyRound draws one round of events for workers workers over size
// cells: random cells, plus a few hot cells that wrap a worker's byte
// once, twice, or exactly to 0 mod 256, and a cell that every worker
// hits 256 times, so its bytes all read 0 and only the wrap entries
// carry its count. It returns each worker's events and the dense
// per-cell totals.
func byteTallyRound(src *rng.Source, workers, size int) ([][]int32, []int32) {
	adds := make([][]int32, workers)
	ref := make([]int32, size)
	add := func(w int, u int32, times int) {
		for range times {
			adds[w] = append(adds[w], u)
			ref[u]++
		}
	}
	for w := range adds {
		for range size / 2 {
			add(w, int32(src.Intn(size)), 1)
		}
		add(w, int32(src.Intn(size)), 300)
		add(w, int32(src.Intn(size)), 513)
		add(w, int32(src.Intn(size)), 256)
		add(w, int32(size-1), 256)
	}
	for w := range adds {
		// Interleave the hot cells with the rest.
		a := adds[w]
		for i := len(a) - 1; i > 0; i-- {
			j := src.Intn(i + 1)
			a[i], a[j] = a[j], a[i]
		}
	}
	return adds, ref
}

// countConcurrently counts every worker's events on its own goroutine,
// in the draw's 128-event blocks, and seals the round.
func countConcurrently(bt *ByteTally, adds [][]int32) {
	var wg sync.WaitGroup
	for w, a := range adds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < len(a); k += 128 {
				bt.Add(w, a[k:min(k+128, len(a))])
			}
		}()
	}
	wg.Wait()
	bt.Seal()
}

// denseNonzero lists ref's nonzero cells in [lo, hi), ascending, with
// their counts.
func denseNonzero(ref []int32, lo, hi int) (cells, counts []int32) {
	for u := lo; u < hi; u++ {
		if ref[u] != 0 {
			cells = append(cells, int32(u))
			counts = append(counts, ref[u])
		}
	}
	return cells, counts
}

// TestByteTallyScanMatchesDense drives counted rounds through a
// ByteTally at 1 to 4 workers, counting concurrently, with wraps past
// 255 in every round, and checks every scan against a dense reference.
// Odd rounds scan windows whose boundaries are not multiples of 8 one
// after another, through buffers of 8, 9 and 13 entries that stop the
// scan mid-window; even rounds scan 64-cell-aligned windows concurrently,
// as the shard owners do. Sizes that are not multiples of 64 (or of 8)
// end on a partial word. A round that starts from a scanned tally must
// see only its own counts, since the scans leave it zeroed. Run it
// under -race.
func TestByteTallyScanMatchesDense(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 4} {
		for _, size := range []int{1000, 1003, 4096 + 37} {
			bt := NewByteTally(workers, size)
			src := rng.New(uint64(100*workers + size))
			for round := 0; round < 4; round++ {
				adds, ref := byteTallyRound(src, workers, size)
				countConcurrently(bt, adds)
				label := fmt.Sprintf("workers=%d size=%d round=%d", workers, size, round)
				if round%2 == 0 {
					scanSequential(t, label, bt, ref)
				} else {
					scanConcurrent(t, label, bt, ref)
				}
			}
		}
	}
}

// scanSequential scans [0, size) in windows of 37 cells, buffer sizes
// cycling through 8, 9 and 13, and compares each window with ref.
func scanSequential(t *testing.T, label string, bt *ByteTally, ref []int32) {
	t.Helper()
	bufs := []int{8, 9, 13}
	call := 0
	for lo := 0; lo < len(ref); lo += 37 {
		hi := min(lo+37, len(ref))
		var cells, counts []int32
		for pos := lo; pos < hi; {
			n := bufs[call%len(bufs)]
			call++
			c, k := make([]int32, n), make([]int32, n)
			got, next := bt.Scan(pos, hi, c, k)
			if next <= pos && got == 0 {
				t.Fatalf("%s: window [%d, %d) made no progress at %d", label, lo, hi, pos)
			}
			cells = append(cells, c[:got]...)
			counts = append(counts, k[:got]...)
			pos = next
		}
		wantCells, wantCounts := denseNonzero(ref, lo, hi)
		if !slices.Equal(cells, wantCells) || !slices.Equal(counts, wantCounts) {
			t.Fatalf("%s: window [%d, %d) scanned %v %v, want %v %v", label, lo, hi, cells, counts, wantCells, wantCounts)
		}
	}
}

// scanConcurrent scans [0, size) in 64-cell windows, one goroutine per
// window, through 128-entry buffers, and compares the concatenation in
// window order with ref.
func scanConcurrent(t *testing.T, label string, bt *ByteTally, ref []int32) {
	t.Helper()
	windows := (len(ref) + 63) / 64
	cells := make([][]int32, windows)
	counts := make([][]int32, windows)
	var wg sync.WaitGroup
	for s := range windows {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var c, k [128]int32
			hi := min((s+1)*64, len(ref))
			for pos := s * 64; pos < hi; {
				var got int
				got, pos = bt.Scan(pos, hi, c[:], k[:])
				cells[s] = append(cells[s], c[:got]...)
				counts[s] = append(counts[s], k[:got]...)
			}
		}()
	}
	wg.Wait()
	wantCells, wantCounts := denseNonzero(ref, 0, len(ref))
	if got := slices.Concat(cells...); !slices.Equal(got, wantCells) {
		t.Fatalf("%s: concurrent scan found cells %v, want %v", label, got, wantCells)
	}
	if got := slices.Concat(counts...); !slices.Equal(got, wantCounts) {
		t.Fatalf("%s: concurrent scan found counts %v, want %v", label, got, wantCounts)
	}
}

// TestByteTallyWorkersDoNotSharePairs pins the tally layout: the count
// phase writes every byte of a worker's array, so no 128-byte aligned
// pair of cache lines may hold bytes of two workers' arrays, whatever
// the size.
func TestByteTallyWorkersDoNotSharePairs(t *testing.T) {
	const pair = 128
	for _, size := range []int{1, 100, 128, 1000, 1 << 16} {
		bt := NewByteTally(4, size)
		owner := map[uintptr]int{}
		for w, bw := range bt.workers {
			if len(bw.counts) != size {
				t.Fatalf("size=%d: worker %d has %d counts", size, w, len(bw.counts))
			}
			lo := uintptr(unsafe.Pointer(unsafe.SliceData(bw.counts)))
			for p := lo / pair; p <= (lo+uintptr(size)-1)/pair; p++ {
				if o, ok := owner[p]; ok && o != w {
					t.Fatalf("size=%d: a 128-byte line pair holds counts of workers %d and %d", size, o, w)
				}
				owner[p] = w
			}
		}
	}
}

// BenchmarkByteTally measures a counted round as the round loop runs it
// (the count plus scan layer that replaces route plus fold): two
// goroutines each count m pre-drawn destinations into their own byte
// tally at the same time, in the draw's 128-ball blocks, then two
// goroutines scan alternate 2^16-cell windows, as the shard owners do,
// through 128-entry buffers. That is round 1 of an n = m instance at
// d = 2, for m = 2^16 and 2^20. Run it at -cpu 1,2. Reports ns per
// counted ball.
func BenchmarkByteTally(b *testing.B) {
	const workers = 2
	for _, m := range []int{1 << 16, 1 << 20} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			balls := 2 * m
			src := rng.New(1)
			dests := make([][]int32, workers)
			for w := range dests {
				dests[w] = make([]int32, balls/workers)
				for k := range dests[w] {
					dests[w][k] = int32(src.Intn(m))
				}
			}
			bt := NewByteTally(workers, m)
			window := min(m, 1<<16)
			var wg sync.WaitGroup
			count := func(w int) {
				defer wg.Done()
				for k := 0; k < len(dests[w]); k += 128 {
					bt.Add(w, dests[w][k:min(k+128, len(dests[w]))])
				}
			}
			var sums [workers]int64
			scan := func(w int) {
				defer wg.Done()
				var cells, counts [128]int32
				var sum int64
				for lo := w * window; lo < m; lo += workers * window {
					for pos := lo; pos < lo+window; {
						var k int
						k, pos = bt.Scan(pos, lo+window, cells[:], counts[:])
						for _, c := range counts[:k] {
							sum += int64(c)
						}
					}
				}
				sums[w] = sum
			}
			b.ResetTimer()
			for it := 0; it < b.N; it++ {
				wg.Add(workers)
				for w := 0; w < workers; w++ {
					go count(w)
				}
				wg.Wait()
				bt.Seal()
				wg.Add(workers)
				for w := 0; w < workers; w++ {
					go scan(w)
				}
				wg.Wait()
				if sums[0]+sums[1] != int64(balls) {
					b.Fatalf("scanned %d balls, counted %d", sums[0]+sums[1], balls)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(balls), "ns/ball")
		})
	}
}
