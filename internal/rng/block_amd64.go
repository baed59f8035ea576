package rng

// intnBlockAVX512 draws out[j] = streams[vs[j]].Intn(int(n[j])) for a
// prefix of the block, eight entries per vector, advancing the streams
// as the sequential loop does, and returns the prefix's length. It stops
// before the first vector holding a lane that the sequential loop could
// not draw with one SplitMix64 step and one multiply: a low product word
// below the bound, a bound ≤ 0, or a stream index outside streams. It
// then leaves that vector's streams and outputs untouched, so the
// caller's scalar loop continues from the returned entry. The entries of
// one stream must be consecutive; vs and n must be as long as out.
//
//go:noescape
func intnBlockAVX512(streams []Stream, vs, n, out []int32) int

// streamsAtAVX512 sets out[j] to the stream whose state is the
// SplitMix64 finalizer of x0 + j·golden.
//
//go:noescape
func streamsAtAVX512(out []Stream, x0 uint64)
