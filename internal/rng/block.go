package rng

import "repro/internal/cpufeat"

// golden is SplitMix64's state increment, 2⁶⁴/φ rounded to odd.
const golden = 0x9e3779b97f4a7c15

// IntnBlock draws a block of bounded values from many streams at once:
// it sets out[j] = streams[vs[j]].Intn(int(n[j])) for j = 0, 1, …,
// len(out)−1 in that order, and leaves every stream where that loop
// leaves it. The entries of one stream must be consecutive in vs; each
// stream's run may start and end anywhere in the block. vs and n must be
// at least as long as out. out may be n itself, so a block can turn its
// bounds into draws in place, but must not otherwise overlap vs or n.
// Like Intn, it panics on a bound n[j] ≤ 0, and on a stream index
// outside streams, after drawing every entry before it.
//
// Where the CPU has AVX-512 (internal/cpufeat) a kernel draws eight
// entries per vector: it gathers their streams' states, steps each
// lane's state past the entries before it in its stream's run, applies
// the SplitMix64 finalizer with VPMULLQ and forms Lemire's 64×32-bit
// product from two VPMULUDQ. A lane whose low product word lies below
// its bound is where Intn's rejection test could redraw, so the kernel
// stops before that lane's vector, and the scalar loop below draws the
// rest of the block from where the kernel left every stream. That lane
// appears with probability below 2⁻³³ per draw on random states, so
// the scalar loop costs nothing in practice and keeps Intn's rejection
// semantics exact. The loop (intnBlockPortable) is also the portable
// path and the kernel's test reference.
func IntnBlock(streams []Stream, vs, n, out []int32) {
	vs, n = vs[:len(out)], n[:len(out)]
	j := 0
	if cpufeat.AVX512() && len(out) > 0 {
		j = intnBlockAVX512(streams, vs, n, out)
	}
	intnBlockPortable(streams, vs[j:], n[j:], out[j:])
}

// intnBlockPortable is IntnBlock's sequential loop.
func intnBlockPortable(streams []Stream, vs, n, out []int32) {
	vs, n = vs[:len(out)], n[:len(out)]
	for j := range out {
		out[j] = int32(streams[vs[j]].Intn(int(n[j])))
	}
}

// StreamsAt sets out[j] = StreamAt(seed, lo+j) for every j: the block
// form of StreamAt, which seeds a run of consecutive entities' streams
// in one pass. Where the CPU has AVX-512 a kernel applies the SplitMix64
// finalizer to eight consecutive counter values per vector.
func StreamsAt(out []Stream, seed uint64, lo int) {
	sm := (seed ^ streamSeedSalt) + uint64(lo)*golden
	if cpufeat.AVX512() {
		streamsAtAVX512(out, sm+golden)
		return
	}
	streamsAtPortable(out, sm)
}

// streamsAtPortable sets out[j] to the stream whose state is the
// (j+1)-th SplitMix64 output from state sm.
func streamsAtPortable(out []Stream, sm uint64) {
	for j := range out {
		out[j].state = SplitMix64(&sm)
	}
}
