package engine

import (
	"encoding/binary"
	"slices"
)

// MaxByteTallyWorkers is the most workers a ByteTally serves: a scan sums
// one byte per worker in 16-bit lanes, and 256 bytes of at most 255 each
// still fit one.
const MaxByteTallyWorkers = 256

// ByteTally is the direct-count substrate of the round loop: instead of
// routing each event into a lane that a later fold reads back, phase-1
// worker w counts it into its own byte array, one uint8 per cell, and
// records every wrap of a byte past 255 in its own wrap list. Phase-2
// shard owners then Scan their windows of every worker's array a word
// (8 cells) at a time: all-zero words are skipped, a cell's count is its
// bytes summed across workers plus 256 per wrap entry, and the scan
// zeroes what it read, so the arrays are all zero again when every
// window has been scanned and no reset pass exists.
//
// A round costs O(events) for the counting, which writes one byte per
// event into an array that stays cache-resident while workers·size
// bytes fit the cache, and O(workers·size/8 + nonzero cells) for the
// scans. Against the route-and-fold pipeline (Router, Tally) it writes
// and reads back no lane entries and touches no occupancy bitmap, which
// pays while the arrays fit and the round has enough events to amortize
// the full scan; the client loop in internal/core selects between them.
//
// Determinism: per-worker counts and wrap lists depend on which worker
// drew which events, but a cell's total is their exact, order-independent
// sum, and every window is read in ascending cell order, so a scan's
// output is identical for every worker count and steal schedule.
//
// Layout: each worker's array lies at least one padding granule away from
// every other worker's, so the counting workers never write the same
// cache line, or the same adjacent-line pair.
type ByteTally struct {
	workers []byteWorker
	// wraps is the ascending union of the workers' wrap lists, built by
	// Seal for the round's scans.
	wraps []int32
}

// byteWorker is one worker's share of a ByteTally: counts[i] is the
// number of events it counted into cell i this round, mod 256, and wraps
// holds cell i once per wrap of counts[i] from 255 to 0.
type byteWorker struct {
	counts []uint8
	wraps  []int32
}

// NewByteTally returns an all-zero ByteTally of size cells for the given
// number of counting workers, 1 to MaxByteTallyWorkers.
func NewByteTally(workers, size int) *ByteTally {
	if workers < 1 || workers > MaxByteTallyWorkers {
		panic("engine: ByteTally worker count out of range")
	}
	stride := (size+padGranule-1)/padGranule*padGranule + padGranule
	backing := make([]uint8, padGranule+workers*stride)
	t := &ByteTally{workers: make([]byteWorker, workers)}
	for w := range t.workers {
		lo := padGranule + w*stride
		t.workers[w].counts = backing[lo : lo+size : lo+size]
	}
	return t
}

// Add counts one event into each of cells for worker w. Every cell must
// lie in [0, size). Each worker calls Add for its own index only, so
// workers count concurrently.
func (t *ByteTally) Add(w int, cells []int32) {
	bw := &t.workers[w]
	counts := bw.counts
	for _, u := range cells {
		b := counts[u] + 1
		counts[u] = b
		if b == 0 {
			bw.wraps = append(bw.wraps, u)
		}
	}
}

// Seal ends a round's counting: it merges the workers' wrap lists into
// the ascending list the round's scans read, and empties them for the
// next round. Call it once, after every Add of the round and before its
// first Scan.
func (t *ByteTally) Seal() {
	t.wraps = t.wraps[:0]
	for w := range t.workers {
		t.wraps = append(t.wraps, t.workers[w].wraps...)
		t.workers[w].wraps = t.workers[w].wraps[:0]
	}
	slices.Sort(t.wraps)
}

// Scan reads the round's counts of cells [lo, hi) from lo on, in
// ascending order: it writes each cell with a nonzero count to
// cells[k] and the count to counts[k], zeroes the bytes it read, and
// returns k and the cell at which the next call resumes (hi once the
// window is done). It stops before a word whose cells might not fit the
// buffers, so buffers of at least 8 entries always make progress. Shard
// owners scan distinct windows concurrently when no two windows share a
// word, that is, when every window boundary but the last is a multiple
// of 8.
func (t *ByteTally) Scan(lo, hi int, cells, counts []int32) (k, next int) {
	cells = cells[:min(len(cells), len(counts))]
	wraps := t.wraps
	if len(wraps) > 0 {
		i, _ := slices.BinarySearch(wraps, int32(lo))
		wraps = wraps[i:]
	}
	base := lo &^ 7
	for base < hi {
		if k+8 > len(cells) {
			return k, max(base, lo)
		}
		// Whole words inside the window, up to the next wrapped cell's
		// word, take the word-wide path; the rest go a byte at a time.
		stop := hi &^ 7
		if len(wraps) > 0 {
			stop = min(stop, int(wraps[0])&^7)
		}
		if base >= lo && base < stop {
			k, base = t.scanWords(base, stop, k, cells, counts)
			continue
		}
		k, wraps = t.scanWord(base, max(lo, base), min(hi, base+8), k, wraps, cells, counts)
		base += 8
	}
	return k, hi
}

// scanBlock is the most words scanWords sums at once: 128 cells, whose
// lane sums stay in two 128-byte stack arrays.
const scanBlock = 16

// scanWords is Scan over the whole words [base, stop), which hold no
// wrapped cell, until the buffers might overflow; it returns the new k
// and the word it stopped at. It works in blocks of up to scanBlock
// words. First each worker's stretch of the block is read in order and
// its bytes are summed into 16-bit lanes, the even cells' in one word
// per tally word and the odd cells' in another (a lane holds at most
// 255·workers < 2¹⁶), and a stretch that held anything is zeroed. Then
// each nonzero word writes all eight cells, advancing the next slot
// past each nonzero one, so no branch depends on a cell's count.
func (t *ByteTally) scanWords(base, stop, k int, cells, counts []int32) (int, int) {
	const evenBytes = 0x00ff00ff00ff00ff
	for base < stop && k+8 <= len(cells) {
		words := min((stop-base)/8, (len(cells)-k)/8, scanBlock)
		var even, odd [scanBlock]uint64
		for i := range t.workers {
			c := t.workers[i].counts[base : base+8*words]
			var or uint64
			for q := range words {
				x := binary.LittleEndian.Uint64(c[8*q:])
				or |= x
				even[q] += x & evenBytes
				odd[q] += x >> 8 & evenBytes
			}
			if or != 0 {
				clear(c)
			}
		}
		for q := range words {
			e, o := even[q], odd[q]
			if e|o == 0 {
				continue
			}
			u := int32(base + 8*q)
			c := (*[8]int32)(cells[k : k+8])
			n := (*[8]int32)(counts[k : k+8 : k+8])
			i := 0
			for j := 0; j < 8; j += 2 {
				ec := int32(e >> (8 * j) & 0xffff)
				oc := int32(o >> (8 * j) & 0xffff)
				c[i&7], n[i&7] = u+int32(j), ec
				if ec != 0 {
					i++
				}
				c[i&7], n[i&7] = u+int32(j+1), oc
				if oc != 0 {
					i++
				}
			}
			k += i
		}
		base += 8 * words
	}
	return k, base
}

// scanWord is Scan over the cells [lo, hi) of the word at base, a byte
// at a time: it sums and zeroes the workers' bytes, adds 256 for each
// wrap entry of the word, writes the nonzero cells from index k on, and
// returns the new k and the wrap entries left.
func (t *ByteTally) scanWord(base, lo, hi, k int, wraps, cells, counts []int32) (int, []int32) {
	var sum [8]int32
	for i := range t.workers {
		c := t.workers[i].counts
		for u := lo; u < hi; u++ {
			sum[u-base] += int32(c[u])
			c[u] = 0
		}
	}
	for ; len(wraps) > 0 && int(wraps[0]) < hi; wraps = wraps[1:] {
		sum[int(wraps[0])-base] += 256
	}
	for j, c := range sum {
		if c != 0 {
			cells[k], counts[k] = int32(base+j), c
			k++
		}
	}
	return k, wraps
}
