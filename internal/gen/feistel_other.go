//go:build !amd64

package gen

// The AVX-512 kernels exist only in amd64 builds; cpufeat.AVX512
// reports false elsewhere, so these are never called.

func feistelPrefixAVX512(keys *[4]uint64, hb, mask, x0 uint64, out []int32) {
	panic("gen: AVX-512 kernel called on a build without it")
}

func feistelKeyedAVX512(keys []uint64, hb, mask uint64, xs, ks, out []int32) bool {
	panic("gen: AVX-512 kernel called on a build without it")
}
