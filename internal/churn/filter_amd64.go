package churn

// dropFailedAVX512 compacts the entries of row whose bit in failed is
// clear to the front of row, in order, and returns how many there are.
// len(row) must be a multiple of 16. It returns −1, leaving row
// undefined, when some entry lies outside [0, 64·len(failed)); no word
// outside failed is read.
//
//go:noescape
func dropFailedAVX512(row []int32, failed []uint64) int
