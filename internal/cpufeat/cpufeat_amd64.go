package cpufeat

var avx512 = detectAVX512()

// cpuid executes CPUID with the given leaf and sub-leaf.
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads the low 32 bits of XCR0, the register that lists the
// state components the operating system saves and restores.
func xgetbv() (eax uint32)

// XCR0 bits the kernels need enabled: SSE and AVX state (bits 1, 2) and
// the three AVX-512 components, opmask, ZMM_Hi256 and Hi16_ZMM (bits 5–7).
const xcr0AVX512 = 0xE6

func detectAVX512() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, popcnt = 1 << 27, 1 << 23
	if ecx1&osxsave == 0 || ecx1&popcnt == 0 {
		return false
	}
	if xgetbv()&xcr0AVX512 != xcr0AVX512 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx512f, avx512dq = 1 << 16, 1 << 17
	return ebx7&avx512f != 0 && ebx7&avx512dq != 0
}
