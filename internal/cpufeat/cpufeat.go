// Package cpufeat reports the CPU features the SIMD kernels in
// internal/gen, internal/churn and internal/rng need. The check runs
// once, when the package is initialized, and nothing can override it:
// there is no option, flag or environment variable, so a process either
// runs the AVX-512 kernels everywhere or the pure-Go path everywhere,
// and both produce bit-for-bit identical results.
package cpufeat

// AVX512 reports whether the kernels may run: the CPU has AVX-512F,
// AVX-512DQ and POPCNT, and the operating system saves the opmask and
// ZMM register state across context switches. It is always false on
// builds for other architectures than amd64.
func AVX512() bool { return avx512 }
