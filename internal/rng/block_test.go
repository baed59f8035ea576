package rng

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cpufeat"
)

// requireAVX512 logs which path this process dispatched to and skips
// the kernel half of a test where the CPU (or the OS) lacks AVX-512, so
// a runner without it shows the skip instead of passing silently.
func requireAVX512(t *testing.T) {
	t.Helper()
	if !cpufeat.AVX512() {
		t.Skip("CPU or OS lacks AVX-512F/DQ: this process runs the pure-Go path only")
	}
	t.Log("AVX-512 kernels enabled: comparing them with the pure-Go reference")
}

// blockBounds are the bounds the block tests draw under: the smallest,
// powers of two (where Intn never redraws), the draw's degrees and the
// largest an int32 holds.
var blockBounds = []int32{1, 2, 3, 100, 256, 400, math.MaxInt32}

// zeroNext is the state whose next SplitMix64 output is 0: the state
// advance makes it 0, and the finalizer maps 0 to 0. Lemire's product of
// 0 has a low word of 0, below every bound, so a draw from it is flagged
// and, at a bound that is not a power of two, redrawn.
const zeroNext = ^uint64(golden) + 1

// blockCase is one block: runs of consecutive entries per stream, with
// a bound per entry.
type blockCase struct {
	streams   []Stream
	vs, bound []int32
}

// newBlockCase builds a block of length k over 3k+8 streams with random
// states: runs of 1–5 entries on distinct, randomly chosen streams, each
// entry's bound drawn from bounds.
func newBlockCase(r *Source, k int, bounds []int32) blockCase {
	c := blockCase{streams: make([]Stream, 3*k+8), vs: make([]int32, k), bound: make([]int32, k)}
	for i := range c.streams {
		c.streams[i].state = r.Uint64()
	}
	perm := r.Perm(len(c.streams))
	for j, run := 0, 0; j < k; run++ {
		for n := 1 + r.Intn(5); n > 0 && j < k; n-- {
			c.vs[j], c.bound[j] = int32(perm[run]), bounds[r.Intn(len(bounds))]
			j++
		}
	}
	return c
}

// clone copies the case's streams, so two paths start from the same
// states.
func (c blockCase) clone() []Stream { return append([]Stream(nil), c.streams...) }

// want runs the sequential Intn loop on a copy of the case's streams and
// returns its draws and the streams it leaves.
func (c blockCase) want() ([]int32, []Stream) {
	streams := c.clone()
	out := make([]int32, len(c.vs))
	for j := range out {
		out[j] = int32(streams[c.vs[j]].Intn(int(c.bound[j])))
	}
	return out, streams
}

// check fails unless the draws and the streams equal the sequential
// loop's.
func (c blockCase) check(t *testing.T, name string, got []int32, streams []Stream) {
	t.Helper()
	want, wantStreams := c.want()
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("%s: entry %d (stream %d, bound %d) = %d, Intn loop draws %d", name, j, c.vs[j], c.bound[j], got[j], want[j])
		}
	}
	for i := range wantStreams {
		if streams[i] != wantStreams[i] {
			t.Fatalf("%s: stream %d left at %#x, Intn loop leaves %#x", name, i, streams[i].state, wantStreams[i].state)
		}
	}
}

// TestIntnBlockMatchesIntn is IntnBlock's contract: on random states,
// at every block length from 0 to 257, under each bound alone and under
// all of them mixed, it draws what the sequential Intn loop draws and
// leaves every stream where that loop does, also when it writes its
// draws over its bounds. The kernel half calls the AVX-512 kernel
// directly, which must draw every entry of such a block itself.
func TestIntnBlockMatchesIntn(t *testing.T) {
	t.Logf("dispatch: AVX-512 = %v", cpufeat.AVX512())
	sets := [][]int32{blockBounds}
	for _, b := range blockBounds {
		sets = append(sets, []int32{b})
	}
	r := New(0xB10C)
	for k := 0; k <= 257; k++ {
		for _, bounds := range sets {
			c := newBlockCase(r, k, bounds)
			name := fmt.Sprintf("k=%d bounds=%v", k, bounds)
			streams, out := c.clone(), make([]int32, k)
			IntnBlock(streams, c.vs, c.bound, out)
			c.check(t, name, out, streams)

			streams, inPlace := c.clone(), append([]int32(nil), c.bound...)
			IntnBlock(streams, c.vs, inPlace, inPlace)
			c.check(t, name+" in place", inPlace, streams)
		}
	}
	t.Run("kernel", func(t *testing.T) {
		requireAVX512(t)
		r := New(0xB10C2)
		for k := 0; k <= 257; k++ {
			c := newBlockCase(r, k, blockBounds)
			streams, out := c.clone(), make([]int32, k)
			if got := intnBlockAVX512(streams, c.vs, c.bound, out); got != k {
				t.Fatalf("k=%d: kernel drew %d entries of a block without a flagged lane", k, got)
			}
			c.check(t, fmt.Sprintf("kernel k=%d", k), out, streams)
		}
	})
}

// TestIntnBlockRedraw places a stream whose next output is 0 at every
// position of a block. Under a bound that is not a power of two, Intn's
// threshold loop redraws from it, so the kernel must stop before that
// entry's vector and leave it to the scalar loop; under a power of two
// Intn keeps the 0, and the block must too.
func TestIntnBlockRedraw(t *testing.T) {
	r := New(0x2E0)
	for _, bound := range []int32{3, 100, 400, 256} {
		for k := 1; k <= 40; k++ {
			for at := 0; at < k; at++ {
				c := newBlockCase(r, k, []int32{bound})
				c.streams[c.vs[at]].state = zeroNext
				name := fmt.Sprintf("bound=%d k=%d zero at %d", bound, k, at)
				streams, out := c.clone(), make([]int32, k)
				IntnBlock(streams, c.vs, c.bound, out)
				c.check(t, name, out, streams)
			}
		}
	}
	t.Run("kernel", func(t *testing.T) {
		requireAVX512(t)
		r := New(0x2E1)
		for k := 1; k <= 40; k++ {
			for at := 0; at < k; at++ {
				c := newBlockCase(r, k, []int32{100})
				// The zero state's run may have entries before at;
				// move it to the run's first entry.
				first := at
				for first > 0 && c.vs[first-1] == c.vs[at] {
					first--
				}
				c.streams[c.vs[at]].state = zeroNext
				streams, out := c.clone(), make([]int32, k)
				drawn := intnBlockAVX512(streams, c.vs, c.bound, out)
				if want := first &^ 7; drawn != want {
					t.Fatalf("k=%d zero at %d: kernel drew %d entries, want the %d before the flagged vector", k, first, drawn, want)
				}
				intnBlockPortable(streams, c.vs[drawn:], c.bound[drawn:], out[drawn:])
				c.check(t, fmt.Sprintf("kernel k=%d zero at %d", k, first), out, streams)
			}
		}
	})
}

// TestIntnBlockPanics requires IntnBlock to panic, as Intn does, on a
// bound ≤ 0 and on a stream index outside the streams, at every
// position of a block, with the entries before it drawn as the loop
// draws them.
func TestIntnBlockPanics(t *testing.T) {
	r := New(0xBAD)
	for _, bad := range []struct {
		name string
		set  func(c *blockCase, j int)
	}{
		{"bound 0", func(c *blockCase, j int) { c.bound[j] = 0 }},
		{"bound -5", func(c *blockCase, j int) { c.bound[j] = -5 }},
		{"stream past the end", func(c *blockCase, j int) { c.vs[j] = int32(len(c.streams)) }},
		{"negative stream", func(c *blockCase, j int) { c.vs[j] = -1 }},
	} {
		for _, k := range []int{1, 8, 9, 20} {
			for at := 0; at < k; at++ {
				c := newBlockCase(r, k, blockBounds)
				bad.set(&c, at)
				streams, out := c.clone(), make([]int32, k)
				panicked := func() (p bool) {
					defer func() { p = recover() != nil }()
					IntnBlock(streams, c.vs, c.bound, out)
					return false
				}()
				if !panicked {
					t.Fatalf("%s at %d of %d: IntnBlock did not panic", bad.name, at, k)
				}
				want := c.clone()
				for j := 0; j < at; j++ {
					if w := int32(want[c.vs[j]].Intn(int(c.bound[j]))); out[j] != w {
						t.Fatalf("%s at %d of %d: entry %d = %d before the panic, want %d", bad.name, at, k, j, out[j], w)
					}
				}
				for i := range want {
					if streams[i] != want[i] {
						t.Fatalf("%s at %d of %d: stream %d left at %#x, want %#x", bad.name, at, k, i, streams[i].state, want[i].state)
					}
				}
			}
		}
	}
}

// TestStreamsAtMatchesStreamAt is StreamsAt's contract: out[j] is
// StreamAt(seed, lo+j) at every length from 0 to 67 and at offsets that
// start inside and on vector boundaries. The kernel half calls the
// AVX-512 kernel directly.
func TestStreamsAtMatchesStreamAt(t *testing.T) {
	t.Logf("dispatch: AVX-512 = %v", cpufeat.AVX512())
	offsets := []int{0, 1, 7, 8, 13, 1 << 20, 1<<31 - 5}
	check := func(t *testing.T, name string, seed uint64, lo int, got []Stream) {
		t.Helper()
		for j := range got {
			if want := StreamAt(seed, lo+j); got[j] != want {
				t.Fatalf("%s seed=%#x lo=%d: out[%d] = %#x, StreamAt gives %#x", name, seed, lo, j, got[j].state, want.state)
			}
		}
	}
	for _, seed := range []uint64{0, 1, 0xDEADBEEF, math.MaxUint64} {
		for _, lo := range offsets {
			for k := 0; k <= 67; k++ {
				out := make([]Stream, k+1)
				out[k].state = 0x5EA1
				StreamsAt(out[:k], seed, lo)
				check(t, "StreamsAt", seed, lo, out[:k])
				if out[k].state != 0x5EA1 {
					t.Fatalf("seed=%#x lo=%d k=%d: StreamsAt wrote past its block", seed, lo, k)
				}
			}
		}
	}
	t.Run("kernel", func(t *testing.T) {
		requireAVX512(t)
		for _, lo := range offsets {
			for k := 0; k <= 67; k++ {
				out := make([]Stream, k)
				streamsAtAVX512(out, (0xC0FFEE^streamSeedSalt)+uint64(lo+1)*golden)
				check(t, "kernel", 0xC0FFEE, lo, out)
			}
		}
	})
}

// BenchmarkIntnBlock measures the block draw in ns per draw, on blocks
// shaped like the client loop's round 1: 64 consecutive clients of a
// 2²⁰-stream array draw two balls each, 128 per block, under the
// benchmark workloads' degrees as bounds. "kernel" is IntnBlock as
// dispatched on this CPU and "portable" the sequential Intn loop.
func BenchmarkIntnBlock(b *testing.B) {
	const clients, balls, block = 1 << 20, 2, 128
	streams := NewStreamSlice(1, clients)
	vs, bounds, out := make([]int32, block), make([]int32, block), make([]int32, block)
	for j := range vs {
		vs[j] = int32(j / balls)
	}
	for _, bound := range []int32{256, 400} {
		for j := range bounds {
			bounds[j] = bound
		}
		for _, path := range []struct {
			name string
			draw func(streams []Stream, vs, n, out []int32)
		}{{"kernel", IntnBlock}, {"portable", intnBlockPortable}} {
			b.Run(fmt.Sprintf("bound=%d/%s", bound, path.name), func(b *testing.B) {
				lo := 0
				for b.Loop() {
					if lo+block/balls > clients {
						lo = 0
					}
					path.draw(streams[lo:], vs, bounds, out)
					lo += block / balls
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*block), "ns/draw")
			})
		}
	}
}

// BenchmarkStreamsAt measures block seeding in ns per stream over the
// chunks a run's reset seeds (4,096 streams at a time through 2²⁰):
// "kernel" is StreamsAt as dispatched on this CPU and "portable" the
// scalar SplitMix64 loop.
func BenchmarkStreamsAt(b *testing.B) {
	const clients, chunk = 1 << 20, 4096
	streams := make([]Stream, clients)
	for _, path := range []struct {
		name string
		seed func(out []Stream, seed uint64, lo int)
	}{
		{"kernel", StreamsAt},
		{"portable", func(out []Stream, seed uint64, lo int) {
			streamsAtPortable(out, (seed^streamSeedSalt)+uint64(lo)*golden)
		}},
	} {
		b.Run(path.name, func(b *testing.B) {
			lo := 0
			for b.Loop() {
				if lo+chunk > clients {
					lo = 0
				}
				path.seed(streams[lo:lo+chunk], 7, lo)
				lo += chunk
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*chunk), "ns/stream")
		})
	}
}
