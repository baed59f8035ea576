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

// sumWindow reads the round's counts of cells [lo, hi) a word at a time
// through SumCells and lists the nonzero cells, ascending, with their
// counts.
func sumWindow(bt *ByteTally, lo, hi int) (cells, counts []int32) {
	wraps := bt.Wraps(lo)
	for base := lo &^ 7; base < hi; base += 8 {
		var sum [8]int32
		wraps = bt.SumCells(base, max(lo, base), min(hi, base+8), &sum, wraps)
		for j, c := range sum {
			if c != 0 {
				cells = append(cells, int32(base+j))
				counts = append(counts, c)
			}
		}
	}
	return cells, counts
}

// TestByteTallyScanMatchesDense drives counted rounds through a
// ByteTally at 1 to 4 workers, counting concurrently, with wraps past
// 255 in every round, and checks every read of a window through SumCells
// against a dense reference. Odd rounds read windows whose boundaries
// are not multiples of 8 one after another, so consecutive windows
// share a word; even rounds read 64-cell-aligned windows concurrently,
// as the shard owners do. Sizes that are not multiples of 64 (or of 8)
// end on a partial word. A round that starts from a read tally must see
// only its own counts, since the reads leave it zeroed. Run it under
// -race.
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

// scanSequential reads [0, size) in windows of 37 cells and compares
// each window with ref.
func scanSequential(t *testing.T, label string, bt *ByteTally, ref []int32) {
	t.Helper()
	for lo := 0; lo < len(ref); lo += 37 {
		hi := min(lo+37, len(ref))
		cells, counts := sumWindow(bt, lo, hi)
		wantCells, wantCounts := denseNonzero(ref, lo, hi)
		if !slices.Equal(cells, wantCells) || !slices.Equal(counts, wantCounts) {
			t.Fatalf("%s: window [%d, %d) read %v %v, want %v %v", label, lo, hi, cells, counts, wantCells, wantCounts)
		}
	}
}

// scanConcurrent reads [0, size) in 64-cell windows, one goroutine per
// window, and compares the concatenation in window order with ref.
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
			cells[s], counts[s] = sumWindow(bt, s*64, min((s+1)*64, len(ref)))
		}()
	}
	wg.Wait()
	wantCells, wantCounts := denseNonzero(ref, 0, len(ref))
	if got := slices.Concat(cells...); !slices.Equal(got, wantCells) {
		t.Fatalf("%s: concurrent read found cells %v, want %v", label, got, wantCells)
	}
	if got := slices.Concat(counts...); !slices.Equal(got, wantCounts) {
		t.Fatalf("%s: concurrent read found counts %v, want %v", label, got, wantCounts)
	}
}

// TestByteTallyFoldMatchesDense folds counted rounds of 1 to 4 workers,
// with wraps past 255 and lane sums past 255 (a cell that every worker
// hits 256 times folds to a byte of 0 and wrap entries only), into the
// one-worker form, 256-cell windows folded concurrently as the Driver's
// shard owners do, over sizes that end on a partial word. Every cell's
// byte plus 256 per wrap entry must equal the dense reference, the wrap
// entries must be ascending, the touched bits must name exactly the
// cells with a count, and the tally must be all zero afterwards. A view
// of the folded round must then read to the same cells and counts, and
// leave the folded bytes as they were. Run it under -race.
func TestByteTallyFoldMatchesDense(t *testing.T) {
	src := rng.New(0xF01D)
	for _, workers := range []int{1, 2, 3, 4} {
		for _, size := range []int{1000, 1003, 4096 + 37} {
			bt := NewByteTally(workers, size)
			for round := range 3 {
				name := fmt.Sprintf("workers=%d size=%d round=%d", workers, size, round)
				adds, ref := byteTallyRound(src, workers, size)
				countConcurrently(bt, adds)
				dst := make([]uint8, size)
				touched := make([]uint64, (size+63)/64)
				for i := range touched {
					touched[i] = ^uint64(0) // Fold must clear what it does not set
				}
				const window = 256
				windows := (size + window - 1) / window
				wraps := make([][]int32, windows)
				var wg sync.WaitGroup
				for s := range windows {
					wg.Add(1)
					go func() {
						defer wg.Done()
						wraps[s] = bt.Fold(s*window, min((s+1)*window, size), dst, nil, touched)
					}()
				}
				wg.Wait()
				all := slices.Concat(wraps...)
				if !slices.IsSorted(all) {
					t.Fatalf("%s: wrap entries not ascending: %v", name, all)
				}
				got := make([]int32, size)
				for u, c := range dst {
					got[u] = int32(c)
				}
				for _, u := range all {
					got[u] += 256
				}
				if !slices.Equal(got, ref) {
					t.Fatalf("%s: folded counts differ from the reference", name)
				}
				for u, c := range ref {
					bit := touched[u>>6]>>(u&63)&1 == 1
					if bit != (c != 0) {
						t.Fatalf("%s: touched bit of cell %d is %t for count %d", name, u, bit, c)
					}
				}
				for u := size; u < 64*len(touched); u++ {
					if touched[u>>6]>>(u&63)&1 == 1 {
						t.Fatalf("%s: touched bit %d past the last cell", name, u)
					}
				}
				bt.Seal()
				if left, _ := sumWindow(bt, 0, size); len(left) != 0 {
					t.Fatalf("%s: fold left %d nonzero cells in the tally", name, len(left))
				}
				var view ByteTally
				view.SetView(dst, all)
				before := slices.Clone(dst)
				gotCells, gotCounts := sumWindow(&view, 0, size)
				wantCells, wantCounts := denseNonzero(ref, 0, size)
				if !slices.Equal(gotCells, wantCells) || !slices.Equal(gotCounts, wantCounts) {
					t.Fatalf("%s: the view reads differently from the reference", name)
				}
				if !slices.Equal(dst, before) {
					t.Fatalf("%s: reading the view wrote its counts", name)
				}
			}
		}
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

// BenchmarkByteTally measures a counted round as the Runner runs it (the
// count plus read layer that replaces route plus fold): two goroutines
// each count m pre-drawn destinations into their own byte tally at the
// same time, in the draw's 128-ball blocks, then two goroutines read
// alternate 2^16-cell windows through SumWords and Wraps, as the shard
// owners' dense pass does, and add up the counts. That is round 1 of an
// n = m instance at d = 2, for m = 2^16 and 2^20. Run it at -cpu 1,2.
// Reports ns per counted ball.
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
			lanes := func(l uint64) int64 { return int64(l&0xffff + l>>16&0xffff + l>>32&0xffff + l>>48) }
			read := func(w int) {
				defer wg.Done()
				var even, odd [SumBlock]uint64
				var sum int64
				for lo := w * window; lo < m; lo += workers * window {
					for base := lo; base < lo+window; base += 8 * SumBlock {
						bt.SumWords(base, SumBlock, &even, &odd)
						for q := range SumBlock {
							sum += lanes(even[q]) + lanes(odd[q])
						}
					}
					for _, u := range bt.Wraps(lo) {
						if int(u) >= lo+window {
							break
						}
						sum += 256
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
					go read(w)
				}
				wg.Wait()
				if sums[0]+sums[1] != int64(balls) {
					b.Fatalf("read %d balls, counted %d", sums[0]+sums[1], balls)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(balls), "ns/ball")
		})
	}
}
