#include "textflag.h"

// func dropFailedAVX512(row []int32, failed []uint64) int
//
// Sixteen entries per step: gather each entry's 32-bit word of the
// failed-server bitset (entry u's bit is bit u&31 of word u>>5, the
// little-endian view of failed), shift and test the bit, compress the
// live entries to the low lanes and store all sixteen lanes at the
// write cursor, which then advances by the live count. The cursor never
// passes the read position, so the full store only overwrites entries
// already read.
TEXT ·dropFailedAVX512(SB), NOSPLIT, $0-56
	MOVQ row_base+0(FP), SI
	MOVQ SI, DI
	MOVQ row_len+8(FP), CX
	MOVQ failed_base+24(FP), BX
	MOVQ failed_len+32(FP), AX
	SHLQ $6, AX
	VPBROADCASTD AX, Z29
	MOVL $31, AX
	VPBROADCASTD AX, Z31
	MOVL $1, AX
	VPBROADCASTD AX, Z30
	KXNORW K0, K0, K4

loop:
	CMPQ CX, $16
	JLT done
	VMOVDQU32 (SI), Z0
	VPCMPUD $1, Z29, Z0, K3
	KANDW K3, K4, K4
	KMOVW K3, K1
	VPSRLD $5, Z0, Z1
	VPXORD Z2, Z2, Z2
	VPGATHERDD (BX)(Z1*4), K1, Z2
	VPANDD Z31, Z0, Z3
	VPSRLVD Z3, Z2, Z2
	VPTESTNMD Z30, Z2, K2
	VPCOMPRESSD Z0, K2, Z4
	VMOVDQU32 Z4, (DI)
	KMOVW K2, AX
	POPCNTL AX, AX
	LEAQ (DI)(AX*4), DI
	ADDQ $64, SI
	SUBQ $16, CX
	JMP loop

done:
	KMOVW K4, AX
	CMPL AX, $0xffff
	JNE outside
	SUBQ row_base+0(FP), DI
	SHRQ $2, DI
	MOVQ DI, ret+48(FP)
	VZEROUPPER
	RET

outside:
	MOVQ $-1, ret+48(FP)
	VZEROUPPER
	RET
