package gen

// feistelPrefixAVX512 writes one network pass of the permutation with
// round keys keys over x0, x0+1, …, x0+len(out)−1 into out, as uint32
// bit patterns: out[j] is applyOnce(x0+j) of a feistel with these keys,
// half width hb and half mask mask. len(out) must be a multiple of 16.
//
//go:noescape
func feistelPrefixAVX512(keys *[4]uint64, hb, mask, x0 uint64, out []int32)

// feistelKeyedAVX512 writes one network pass per lane into out, each
// lane under its own permutation: out[j] is applyOnce(uint32(xs[j])) of
// the permutation whose round-r key is keys[r·Δ+ks[j]], Δ = len(keys)/4,
// as a uint32 bit pattern. xs and ks must be at least as long as out,
// and len(out) a multiple of 16. It reports false, leaving out
// undefined, when some ks[j] lies outside [0, Δ); no key outside keys
// is read.
//
//go:noescape
func feistelKeyedAVX512(keys []uint64, hb, mask uint64, xs, ks, out []int32) bool
