#include "textflag.h"

// AVX-512 Feistel kernels: eight 64-bit lanes per vector, four vectors
// in flight per loop step so that the multiplies of one lane's chain
// overlap those of the others. Every lane computes exactly one network
// pass of feistel.applyOnce; the Go callers finish the lanes that land
// at or past the domain with the scalar cycle walk.

// Register roles shared by both kernels.
#define C1 Z24
#define C2 Z25
#define MASK Z26
#define HB X28

// LOADCONSTS broadcasts roundMix's multipliers, the half mask and the
// half width from mask+off(FP) and hb+off(FP).
#define LOADCONSTS(hbArg, maskArg) \
	MOVQ $0xbf58476d1ce4e5b9, AX; \
	VPBROADCASTQ AX, C1; \
	MOVQ $0x94d049bb133111eb, AX; \
	VPBROADCASTQ AX, C2; \
	MOVQ maskArg, AX; \
	VPBROADCASTQ AX, MASK; \
	MOVQ hbArg, AX; \
	VMOVQ AX, HB

// SPLIT cuts the lanes of X into the halves L = (x >> hb) & mask and
// R = x & mask.
#define SPLIT(X, L, R) \
	VPSRLQ HB, X, L; \
	VPANDQ MASK, L, L; \
	VPANDQ MASK, X, R

// ROUND is one Feistel round on eight lanes with halves L and R and
// round key K: it leaves L ^ (roundMix(R, K) & mask) in L, so the next
// round passes the two registers the other way round. Z and T are
// scratch, and Z may be K.
#define ROUND(L, R, K, Z, T) \
	VPADDQ K, R, Z; \
	VPSRLQ $30, Z, T; \
	VPXORQ T, Z, Z; \
	VPMULLQ C1, Z, Z; \
	VPSRLQ $27, Z, T; \
	VPXORQ T, Z, Z; \
	VPMULLQ C2, Z, Z; \
	VPSRLQ $31, Z, T; \
	VPXORQ T, Z, Z; \
	VPTERNLOGQ $0x78, MASK, Z, L

// JOIN stores the low 32 bits of (L << hb) | R, eight int32s, at M.
#define JOIN(L, R, M) \
	VPSLLQ HB, L, L; \
	VPORQ R, L, L; \
	VPMOVQD L, M

DATA iota8<>+0(SB)/8, $0
DATA iota8<>+8(SB)/8, $1
DATA iota8<>+16(SB)/8, $2
DATA iota8<>+24(SB)/8, $3
DATA iota8<>+32(SB)/8, $4
DATA iota8<>+40(SB)/8, $5
DATA iota8<>+48(SB)/8, $6
DATA iota8<>+56(SB)/8, $7
GLOBL iota8<>(SB), RODATA|NOPTR, $64

// Prefix kernel registers: the four round keys in PK0..PK3 (broadcast),
// the next block's first eight inputs in NEXT, and the step 8 in EIGHT.
#define PK0 Z20
#define PK1 Z21
#define PK2 Z22
#define PK3 Z23
#define NEXT Z29
#define EIGHT Z30

// PROUNDS2 and PROUNDS4 run one round with key K on the first two or
// all four vectors, whose halves are in (Z0+i, Z4+i) with scratch Z8+i
// and Z16+i. The B forms pass the halves the other way round, for the
// odd rounds.
#define PROUNDS2(K) \
	ROUND(Z0, Z4, K, Z8, Z16); \
	ROUND(Z1, Z5, K, Z9, Z17)

#define PROUNDS2B(K) \
	ROUND(Z4, Z0, K, Z8, Z16); \
	ROUND(Z5, Z1, K, Z9, Z17)

#define PROUNDS4(K) \
	ROUND(Z0, Z4, K, Z8, Z16); \
	ROUND(Z1, Z5, K, Z9, Z17); \
	ROUND(Z2, Z6, K, Z10, Z18); \
	ROUND(Z3, Z7, K, Z11, Z19)

#define PROUNDS4B(K) \
	ROUND(Z4, Z0, K, Z8, Z16); \
	ROUND(Z5, Z1, K, Z9, Z17); \
	ROUND(Z6, Z2, K, Z10, Z18); \
	ROUND(Z7, Z3, K, Z11, Z19)

// func feistelPrefixAVX512(keys *[4]uint64, hb, mask, x0 uint64, out []int32)
TEXT ·feistelPrefixAVX512(SB), NOSPLIT, $0-56
	MOVQ keys+0(FP), AX
	VPBROADCASTQ 0(AX), PK0
	VPBROADCASTQ 8(AX), PK1
	VPBROADCASTQ 16(AX), PK2
	VPBROADCASTQ 24(AX), PK3
	LOADCONSTS(hb+8(FP), mask+16(FP))
	MOVQ x0+24(FP), AX
	VPBROADCASTQ AX, NEXT
	VPADDQ iota8<>(SB), NEXT, NEXT
	MOVQ $8, AX
	VPBROADCASTQ AX, EIGHT
	MOVQ out_base+32(FP), DI
	MOVQ out_len+40(FP), CX

prefix32:
	CMPQ CX, $32
	JLT prefix16
	SPLIT(NEXT, Z0, Z4)
	VPADDQ EIGHT, NEXT, Z16
	SPLIT(Z16, Z1, Z5)
	VPADDQ EIGHT, Z16, Z17
	SPLIT(Z17, Z2, Z6)
	VPADDQ EIGHT, Z17, Z18
	SPLIT(Z18, Z3, Z7)
	VPADDQ EIGHT, Z18, NEXT
	PROUNDS4(PK0)
	PROUNDS4B(PK1)
	PROUNDS4(PK2)
	PROUNDS4B(PK3)
	JOIN(Z0, Z4, 0(DI))
	JOIN(Z1, Z5, 32(DI))
	JOIN(Z2, Z6, 64(DI))
	JOIN(Z3, Z7, 96(DI))
	ADDQ $128, DI
	SUBQ $32, CX
	JMP prefix32

prefix16:
	CMPQ CX, $16
	JLT prefixDone
	SPLIT(NEXT, Z0, Z4)
	VPADDQ EIGHT, NEXT, Z16
	SPLIT(Z16, Z1, Z5)
	PROUNDS2(PK0)
	PROUNDS2B(PK1)
	PROUNDS2(PK2)
	PROUNDS2B(PK3)
	JOIN(Z0, Z4, 0(DI))
	JOIN(Z1, Z5, 32(DI))

prefixDone:
	VZEROUPPER
	RET

// Keyed kernel registers: the lanes' key indices (as 64-bit lanes) in
// IDX0..IDX3, the key count Δ in DELTA, and the in-range masks of the
// four vectors in K2..K5; K6 accumulates them.
#define IDX0 Z20
#define IDX1 Z21
#define IDX2 Z22
#define IDX3 Z23
#define DELTA Z27

// GATHER loads round key table B's entries at the indices in I into Z,
// for the lanes set in the in-range mask M (K1 is consumed). Zeroing Z
// first lets the gather start before the previous round has finished.
#define GATHER(B, I, M, Z) \
	VPXORQ Z, Z, Z; \
	KMOVB M, K1; \
	VPGATHERQQ (B)(I*8), K1, Z

// KLOAD reads eight key indices at M into I (zero-extended) and ANDs
// their in-range mask into K6.
#define KLOAD(M, I, K) \
	VPMOVZXDQ M, I; \
	VPCMPUQ $1, DELTA, I, K; \
	KANDB K, K6, K6

// KROUNDS2 and KROUNDS4 gather the round keys of the first two or all
// four vectors from key table B, then run the round on them; the B
// forms are for the odd rounds, as for the prefix kernel.
#define KROUNDS2(B) \
	GATHER(B, IDX0, K2, Z8); \
	ROUND(Z0, Z4, Z8, Z8, Z16); \
	GATHER(B, IDX1, K3, Z9); \
	ROUND(Z1, Z5, Z9, Z9, Z17)

#define KROUNDS2B(B) \
	GATHER(B, IDX0, K2, Z8); \
	ROUND(Z4, Z0, Z8, Z8, Z16); \
	GATHER(B, IDX1, K3, Z9); \
	ROUND(Z5, Z1, Z9, Z9, Z17)

#define KROUNDS4(B) \
	GATHER(B, IDX0, K2, Z8); \
	GATHER(B, IDX1, K3, Z9); \
	GATHER(B, IDX2, K4, Z10); \
	GATHER(B, IDX3, K5, Z11); \
	ROUND(Z0, Z4, Z8, Z8, Z16); \
	ROUND(Z1, Z5, Z9, Z9, Z17); \
	ROUND(Z2, Z6, Z10, Z10, Z18); \
	ROUND(Z3, Z7, Z11, Z11, Z19)

#define KROUNDS4B(B) \
	GATHER(B, IDX0, K2, Z8); \
	GATHER(B, IDX1, K3, Z9); \
	GATHER(B, IDX2, K4, Z10); \
	GATHER(B, IDX3, K5, Z11); \
	ROUND(Z4, Z0, Z8, Z8, Z16); \
	ROUND(Z5, Z1, Z9, Z9, Z17); \
	ROUND(Z6, Z2, Z10, Z10, Z18); \
	ROUND(Z7, Z3, Z11, Z11, Z19)

// func feistelKeyedAVX512(keys []uint64, hb, mask uint64, xs, ks, out []int32) bool
TEXT ·feistelKeyedAVX512(SB), NOSPLIT, $0-113
	// R8..R11 point at the four per-round key arrays, Δ words each.
	MOVQ keys_base+0(FP), R8
	MOVQ keys_len+8(FP), AX
	SHRQ $2, AX
	VPBROADCASTQ AX, DELTA
	SHLQ $3, AX
	LEAQ (R8)(AX*1), R9
	LEAQ (R9)(AX*1), R10
	LEAQ (R10)(AX*1), R11
	LOADCONSTS(hb+24(FP), mask+32(FP))
	MOVQ xs_base+40(FP), SI
	MOVQ ks_base+64(FP), DX
	MOVQ out_base+88(FP), DI
	MOVQ out_len+96(FP), CX
	KXNORB K0, K0, K6

keyed32:
	CMPQ CX, $32
	JLT keyed16
	VPMOVZXDQ 0(SI), Z16
	SPLIT(Z16, Z0, Z4)
	VPMOVZXDQ 32(SI), Z17
	SPLIT(Z17, Z1, Z5)
	VPMOVZXDQ 64(SI), Z18
	SPLIT(Z18, Z2, Z6)
	VPMOVZXDQ 96(SI), Z19
	SPLIT(Z19, Z3, Z7)
	KLOAD(0(DX), IDX0, K2)
	KLOAD(32(DX), IDX1, K3)
	KLOAD(64(DX), IDX2, K4)
	KLOAD(96(DX), IDX3, K5)
	KROUNDS4(R8)
	KROUNDS4B(R9)
	KROUNDS4(R10)
	KROUNDS4B(R11)
	JOIN(Z0, Z4, 0(DI))
	JOIN(Z1, Z5, 32(DI))
	JOIN(Z2, Z6, 64(DI))
	JOIN(Z3, Z7, 96(DI))
	ADDQ $128, SI
	ADDQ $128, DX
	ADDQ $128, DI
	SUBQ $32, CX
	JMP keyed32

keyed16:
	CMPQ CX, $16
	JLT keyedDone
	VPMOVZXDQ 0(SI), Z16
	SPLIT(Z16, Z0, Z4)
	VPMOVZXDQ 32(SI), Z17
	SPLIT(Z17, Z1, Z5)
	KLOAD(0(DX), IDX0, K2)
	KLOAD(32(DX), IDX1, K3)
	KROUNDS2(R8)
	KROUNDS2B(R9)
	KROUNDS2(R10)
	KROUNDS2B(R11)
	JOIN(Z0, Z4, 0(DI))
	JOIN(Z1, Z5, 32(DI))

keyedDone:
	KMOVB K6, AX
	CMPL AX, $0xff
	SETEQ ret+112(FP)
	VZEROUPPER
	RET
