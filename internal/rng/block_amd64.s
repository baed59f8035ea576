#include "textflag.h"

// AVX-512 stream kernels: eight 64-bit SplitMix64 states per vector.
// The tail of a block runs as one more vector under a lane mask, so
// every entry goes through the same code.

// gammas<> holds k·golden for k = 0, 1, …, 8 (mod 2⁶⁴).
DATA gammas<>+0(SB)/8, $0
DATA gammas<>+8(SB)/8, $0x9e3779b97f4a7c15
DATA gammas<>+16(SB)/8, $0x3c6ef372fe94f82a
DATA gammas<>+24(SB)/8, $0xdaa66d2c7ddf743f
DATA gammas<>+32(SB)/8, $0x78dde6e5fd29f054
DATA gammas<>+40(SB)/8, $0x1715609f7c746c69
DATA gammas<>+48(SB)/8, $0xb54cda58fbbee87e
DATA gammas<>+56(SB)/8, $0x538454127b096493
DATA gammas<>+64(SB)/8, $0xf1bbcdcbfa53e0a8
GLOBL gammas<>(SB), RODATA|NOPTR, $72

DATA iota8<>+0(SB)/8, $0
DATA iota8<>+8(SB)/8, $1
DATA iota8<>+16(SB)/8, $2
DATA iota8<>+24(SB)/8, $3
DATA iota8<>+32(SB)/8, $4
DATA iota8<>+40(SB)/8, $5
DATA iota8<>+48(SB)/8, $6
DATA iota8<>+56(SB)/8, $7
GLOBL iota8<>(SB), RODATA|NOPTR, $64

#define C1 Z24
#define C2 Z25

// LOADMIX broadcasts the finalizer's two multipliers.
#define LOADMIX \
	MOVQ $0xbf58476d1ce4e5b9, R12; \
	VPBROADCASTQ R12, C1; \
	MOVQ $0x94d049bb133111eb, R12; \
	VPBROADCASTQ R12, C2

// MIX applies the SplitMix64 finalizer to the lanes of S, leaving the
// result in Z; T is scratch.
#define MIX(S, Z, T) \
	VPSRLQ $30, S, T; \
	VPXORQ T, S, Z; \
	VPMULLQ C1, Z, Z; \
	VPSRLQ $27, Z, T; \
	VPXORQ T, Z, Z; \
	VPMULLQ C2, Z, Z; \
	VPSRLQ $31, Z, T; \
	VPXORQ T, Z, Z

// LANEMASK sets K1 to the lanes of the vector at entry AX of a block of
// R11 entries: the first min(R11−AX, 8). It jumps to done when no entry
// is left.
#define LANEMASK(done) \
	MOVQ R11, CX; \
	SUBQ AX, CX; \
	JLE done; \
	MOVQ $8, R9; \
	CMPQ CX, R9; \
	CMOVQGT R9, CX; \
	MOVL $1, R10; \
	SHLL CX, R10; \
	DECL R10; \
	KMOVB R10, K1

// Block-draw registers: the lane numbers, (k+1)·golden for k = 0..7,
// zero, the low-half mask and len(streams).
#define IOTA Z26
#define STEPS Z27
#define ZERO Z28
#define LOW32 Z29
#define NSTREAMS Z30

// func intnBlockAVX512(streams []Stream, vs, n, out []int32) int
TEXT ·intnBlockAVX512(SB), NOSPLIT, $0-104
	MOVQ streams_base+0(FP), BX
	MOVQ streams_len+8(FP), R8
	VPBROADCASTQ R8, NSTREAMS
	MOVQ vs_base+24(FP), SI
	MOVQ n_base+48(FP), DX
	MOVQ out_base+72(FP), DI
	MOVQ out_len+80(FP), R11
	LOADMIX
	VMOVDQU64 iota8<>(SB), IOTA
	VMOVDQU64 gammas<>+8(SB), STEPS
	VPXORQ ZERO, ZERO, ZERO
	MOVQ $0xffffffff, R12
	VPBROADCASTQ R12, LOW32
	XORQ AX, AX

draw:
	LANEMASK(drawDone)
	// Z0 = the lanes' stream indices, Z1 = their bounds (sign-extended,
	// so a negative bound stays negative); K2 = the lanes whose stream
	// index lies inside streams.
	VPMOVZXDQ.Z (SI)(AX*4), K1, Z0
	VPMOVSXDQ.Z (DX)(AX*4), K1, Z1
	VPCMPUQ $1, NSTREAMS, Z0, K1, K2

	// A lane's entry is the r-th of its stream's run within this vector
	// (r ≥ 1), so its state is the gathered one plus r·golden; earlier
	// vectors have already stored their runs' states. r − 1 is the lane
	// number minus that of the run's first lane, a prefix maximum of the
	// lanes where the stream index changes.
	VALIGNQ $7, ZERO, Z0, Z2
	VPCMPQ $4, Z2, Z0, K3
	VMOVDQA64.Z IOTA, K3, Z3
	VALIGNQ $7, ZERO, Z3, Z4
	VPMAXUQ Z4, Z3, Z3
	VALIGNQ $6, ZERO, Z3, Z4
	VPMAXUQ Z4, Z3, Z3
	VALIGNQ $4, ZERO, Z3, Z4
	VPMAXUQ Z4, Z3, Z3
	VPSUBQ Z3, IOTA, Z3
	VPERMQ STEPS, Z3, Z3

	KMOVB K2, K4
	VPXORQ Z5, Z5, Z5
	VPGATHERQQ (BX)(Z0*8), K4, Z5
	VPADDQ Z3, Z5, Z5
	MIX(Z5, Z6, Z7)

	// Lemire's product of the 64-bit value z and the 31-bit bound n:
	// t = hi32(z)·n + (lo32(z)·n >> 32) fits 64 bits, the draw is
	// t >> 32 and the low word is (t << 32) | lo32(lo32(z)·n).
	VPMULUDQ Z1, Z6, Z7
	VPSRLQ $32, Z6, Z8
	VPMULUDQ Z1, Z8, Z8
	VPSRLQ $32, Z7, Z9
	VPADDQ Z9, Z8, Z8
	VPSRLQ $32, Z8, Z9
	VPSLLQ $32, Z8, Z8
	VPTERNLOGQ $0xF8, Z7, LOW32, Z8

	// Stop before this vector if a lane's low word is below its bound,
	// its bound is ≤ 0 or its stream index is out of range.
	VPCMPUQ $1, Z1, Z8, K1, K5
	VPCMPQ $2, ZERO, Z1, K1, K6
	KORB K6, K5, K5
	KANDNB K1, K2, K6
	KORB K6, K5, K5
	KORTESTB K5, K5
	JNZ drawDone

	// Lanes of one run store in lane order, so the run's last state
	// stays.
	KMOVB K1, K4
	VPSCATTERQQ Z5, K4, (BX)(Z0*8)
	VPMOVQD Z9, K1, (DI)(AX*4)
	ADDQ $8, AX
	JMP draw

drawDone:
	CMPQ AX, R11
	CMOVQGT R11, AX
	MOVQ AX, ret+96(FP)
	VZEROUPPER
	RET

// func streamsAtAVX512(out []Stream, x0 uint64)
TEXT ·streamsAtAVX512(SB), NOSPLIT, $0-32
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), R11
	LOADMIX
	MOVQ x0+24(FP), R12
	VPBROADCASTQ R12, Z0
	VPADDQ gammas<>+0(SB), Z0, Z0
	VPBROADCASTQ gammas<>+64(SB), Z1
	XORQ AX, AX

seed:
	LANEMASK(seedDone)
	MIX(Z0, Z2, Z3)
	VMOVDQU64 Z2, K1, (DI)(AX*8)
	VPADDQ Z1, Z0, Z0
	ADDQ $8, AX
	JMP seed

seedDone:
	VZEROUPPER
	RET
