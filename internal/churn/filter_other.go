//go:build !amd64

package churn

// The AVX-512 filter exists only in amd64 builds; cpufeat.AVX512
// reports false elsewhere, so this is never called.
func dropFailedAVX512(row []int32, failed []uint64) int {
	panic("churn: AVX-512 kernel called on a build without it")
}
