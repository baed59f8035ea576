package engine

import (
	"encoding/binary"
	"slices"
)

// MaxByteTallyWorkers is the most workers a ByteTally serves: SumWords
// sums one byte per worker in 16-bit lanes, and 256 bytes of at most 255
// each still fit one.
const MaxByteTallyWorkers = 256

// ByteTally is the direct-count substrate of the round loop: instead of
// routing each event into a lane that a later fold reads back, phase-1
// worker w counts it into its own byte array, one uint8 per cell, and
// records every wrap of a byte past 255 in its own wrap list. Phase-2
// shard owners then read their windows of every worker's array: whole
// words (8 cells) at a time through SumWords, whose caller adds the wrap
// entries (Wraps) and decides each cell where it sums it, and the cells
// of a word that a window only partly covers through SumCells. A cell's
// count is its bytes summed across workers plus 256 per wrap entry, and
// every read zeroes what it read, so the arrays are all zero again when
// every window has been read and no reset pass exists.
//
// A round costs O(events) for the counting, which writes one byte per
// event into an array that stays cache-resident while workers·size
// bytes fit the cache, and O(workers·size/8) for the reads. Against the
// route-and-fold pipeline (Router, Tally) it writes and reads back no
// lane entries and touches no occupancy bitmap, which pays while the
// arrays fit and the round has enough events to amortize the full read;
// the client loop in internal/core selects between them.
//
// Determinism: per-worker counts and wrap lists depend on which worker
// drew which events, but a cell's total is their exact, order-independent
// sum, so every read is identical for every worker count and steal
// schedule.
//
// Layout: each worker's array lies at least one padding granule away from
// every other worker's, so the counting workers never write the same
// cache line, or the same adjacent-line pair.
//
// Fold turns a round of any number of workers into the one-worker form,
// one byte per cell plus ascending wrap entries, which a server bank
// decides densely; SetView reads such a round, held in caller memory,
// through the same SumWords, SumCells and Wraps.
type ByteTally struct {
	workers []byteWorker
	// wraps is the ascending union of the workers' wrap lists, built by
	// Seal for the round's scans.
	wraps []int32
	// view marks a read-only one-worker view (SetView): reads leave its
	// bytes as they are.
	view bool
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

// SetView makes t a read-only one-worker tally over a round held in
// caller memory: counts[i] is cell i's count mod 256, and wraps lists
// the cells, ascending, that take 256 more per entry. SumWords, SumCells
// and Wraps read the round as they read a sealed one-worker tally, but
// never write counts; Add and Seal must not be called on a view. A
// zero ByteTally becomes a view with its first SetView, and allocates
// only then.
func (t *ByteTally) SetView(counts []uint8, wraps []int32) {
	if cap(t.workers) == 0 {
		t.workers = make([]byteWorker, 1)
	}
	t.workers = t.workers[:1]
	t.workers[0].counts = counts
	t.wraps = wraps
	t.view = true
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
// the ascending list the round's reads take, and empties them for the
// next round. Call it once, after every Add of the round and before its
// first read.
func (t *ByteTally) Seal() {
	t.wraps = t.wraps[:0]
	for w := range t.workers {
		t.wraps = append(t.wraps, t.workers[w].wraps...)
		t.workers[w].wraps = t.workers[w].wraps[:0]
	}
	slices.Sort(t.wraps)
}

// SumBlock is the most words SumWords sums at once: 128 cells, whose
// lane sums fit two 128-byte arrays.
const SumBlock = 16

// SumWords sums the round's counts of the whole words [base,
// base+8·words) across the workers, where base is a multiple of 8 and
// words is at most SumBlock, and zeroes the bytes it read (a view's are
// left as they are). Each worker's stretch is read in order and its
// bytes are summed into 16-bit lanes, cell base+8q+j's into the lane at
// bit 8·(j&^1) of even[q] for even j and of odd[q] for odd j (a lane
// holds at most 255·workers < 2¹⁶); a stretch that held anything is
// zeroed. The wrap entries of the words are not added: the caller adds
// them (see Wraps). Shard owners sum distinct words concurrently.
func (t *ByteTally) SumWords(base, words int, even, odd *[SumBlock]uint64) {
	const evenBytes = 0x00ff00ff00ff00ff
	clear(even[:])
	clear(odd[:])
	for i := range t.workers {
		c := t.workers[i].counts[base : base+8*words]
		var or uint64
		for q := range words {
			x := binary.LittleEndian.Uint64(c[8*q:])
			or |= x
			even[q] += x & evenBytes
			odd[q] += x >> 8 & evenBytes
		}
		if or != 0 && !t.view {
			clear(c)
		}
	}
}

// Wraps returns the round's wrap entries at cells lo and above,
// ascending, one per wrap of a worker's byte: a cell's count is its
// bytes' sum plus 256 per entry. The list is the tally's own, valid
// until the next Seal.
func (t *ByteTally) Wraps(lo int) []int32 {
	i, _ := slices.BinarySearch(t.wraps, int32(lo))
	return t.wraps[i:]
}

// SumCells adds the round's counts of cells [lo, hi) of the word at base
// to sum[cell-base], a byte at a time, with 256 for each of wraps'
// leading entries below hi, zeroes the bytes it read (not a view's), and
// returns the wrap entries left. It reads the cells of a word that a
// window covers only in part; wraps must not start below lo.
func (t *ByteTally) SumCells(base, lo, hi int, sum *[8]int32, wraps []int32) []int32 {
	for i := range t.workers {
		c := t.workers[i].counts[lo:hi]
		for k, b := range c {
			sum[lo-base+k] += int32(b)
		}
		if !t.view {
			clear(c)
		}
	}
	for ; len(wraps) > 0 && int(wraps[0]) < hi; wraps = wraps[1:] {
		sum[int(wraps[0])-base] += 256
	}
	return wraps
}

// Fold writes the round's counts of cells [lo, hi), summed across the
// workers, to dst[lo:hi] in the one-worker form a view reads: each
// cell's count mod 256 in its byte, and one entry per further 256
// appended to wraps, ascending, for the round's wrap entries and the
// carries of the byte sums alike. It sets bit i&63 of touched[i>>6] for
// every cell i of the window with a nonzero count, and clears the
// window's other bits; it zeroes the bytes it read and returns wraps.
// lo must be a multiple of 64, so owners of distinct windows fold
// concurrently; dst and touched cover every cell.
func (t *ByteTally) Fold(lo, hi int, dst []uint8, wraps []int32, touched []uint64) []int32 {
	const evenBytes = 0x00ff00ff00ff00ff
	clear(touched[lo>>6 : (hi+63)>>6])
	sealed := t.Wraps(lo)
	var even, odd [SumBlock]uint64
	end := hi &^ 7
	for base := lo; base < end; {
		words := min((end-base)/8, SumBlock)
		t.SumWords(base, words, &even, &odd)
		for q := range words {
			u := base + 8*q
			e, o := even[q], odd[q]
			x := e&evenBytes | (o&evenBytes)<<8
			nz := nonzeroBytes(x)
			if (e|o)&^evenBytes != 0 || len(sealed) > 0 && int(sealed[0]) < u+8 {
				// A lane past 255 or a wrapped cell: the word's counts
				// take wrap entries, written cell by cell.
				var c [8]int32
				for j := 0; j < 8; j += 2 {
					c[j] = int32(e >> (8 * j) & 0xffff)
					c[j+1] = int32(o >> (8 * j) & 0xffff)
				}
				for ; len(sealed) > 0 && int(sealed[0]) < u+8; sealed = sealed[1:] {
					c[int(sealed[0])-u] += 256
				}
				wraps, nz = foldCells(u, c[:], wraps)
			}
			binary.LittleEndian.PutUint64(dst[u:], x)
			touched[u>>6] |= nz << (u & 63)
		}
		base += 8 * words
	}
	if end < hi {
		var c [8]int32
		t.SumCells(end, end, hi, &c, sealed)
		var nz uint64
		wraps, nz = foldCells(end, c[:hi-end], wraps)
		for j := range hi - end {
			dst[end+j] = uint8(c[j])
		}
		touched[end>>6] |= nz << (end & 63)
	}
	return wraps
}

// foldCells appends one wrap entry per 256 of each count c[j] of cell
// u+j to wraps, ascending, and returns wraps and the mask of the cells
// whose count is nonzero.
func foldCells(u int, c []int32, wraps []int32) ([]int32, uint64) {
	var nz uint64
	for j, n := range c {
		nz |= b2u(n != 0) << j
		for range n >> 8 {
			wraps = append(wraps, int32(u+j))
		}
	}
	return wraps, nz
}

// nonzeroBytes returns the mask whose bit j is set when byte j of x is
// nonzero.
func nonzeroBytes(x uint64) uint64 {
	const low7, high = 0x7f7f7f7f7f7f7f7f, 0x8080808080808080
	y := (x&low7 + low7 | x) & high
	return (y >> 7) * 0x0102040810204080 >> 56
}

// b2u is 1 for true and 0 for false.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
