//go:build !amd64

package rng

// The AVX-512 kernels exist only in amd64 builds; cpufeat.AVX512
// reports false elsewhere, so these are never called.

func intnBlockAVX512(streams []Stream, vs, n, out []int32) int {
	panic("rng: AVX-512 kernel called on a build without it")
}

func streamsAtAVX512(out []Stream, x0 uint64) {
	panic("rng: AVX-512 kernel called on a build without it")
}
