#include "textflag.h"

// func logBlock(lg, u *[256]float64, tab *[256]logCell)
//
// fastLog over 256 uniforms, four lanes per step. The float operations are
// fastLog's, in its order, so every lane rounds as fastLog does:
//	r = z*invc - 1
//	log = (k*ln2 + logc) + (r + (r*r)*(-1/2 + r*(1/3 + r*(-1/4 + r*(1/5)))))
// The cell's (invc, logc) are gathered from the interleaved table: index
// 2*cell, scale 8, at offsets 0 and 8. AVX2 has neither an arithmetic
// 64-bit shift nor an int64-to-double conversion, so k = int64(tmp)>>52
// comes from its top 12 bits: (tmp>>52) ^ 0x800 is k + 2048, and placed in
// the mantissa of 2^52 it reads 2^52 + 2048 + k; subtracting 2^52 + 2048
// (bit pattern 0x4330000000000800, which is also the xor mask) is exact.
//
// Every vector instruction is VEX-encoded: a legacy SSE one after the first
// 256-bit write would stall on the dirty upper halves. Each gather gets a
// fresh all-ones mask (VPCMPEQD, which needs no input) and a zeroed
// destination, since a gather merges into its destination: otherwise every
// step would wait on the step before.
TEXT ·logBlock(SB), NOSPLIT, $0-24
	MOVQ lg+0(FP), DI
	MOVQ u+8(FP), SI
	MOVQ tab+16(FP), DX

	MOVQ         $0x3fe6a00000000000, AX // logTabOff
	VMOVQ        AX, X6
	VPBROADCASTQ X6, Y6
	MOVQ         $0x1fe, AX              // 2*cell mask after tmp>>43
	VMOVQ        AX, X7
	VPBROADCASTQ X7, Y7
	MOVQ         $0x000fffffffffffff, AX // low 52 bits
	VMOVQ        AX, X8
	VPBROADCASTQ X8, Y8
	MOVQ         $0x3ff0000000000000, AX // 1
	VMOVQ        AX, X9
	VPBROADCASTQ X9, Y9
	MOVQ         $0x4330000000000800, AX // 2^52 + 2048
	VMOVQ        AX, X10
	VPBROADCASTQ X10, Y10
	MOVQ         $0x3fe62e42fefa39ef, AX // ln 2
	VMOVQ        AX, X11
	VPBROADCASTQ X11, Y11
	MOVQ         $0x3fc999999999999a, AX // 1/5
	VMOVQ        AX, X12
	VPBROADCASTQ X12, Y12
	MOVQ         $0xbfd0000000000000, AX // -1/4
	VMOVQ        AX, X13
	VPBROADCASTQ X13, Y13
	MOVQ         $0x3fd5555555555555, AX // 1/3
	VMOVQ        AX, X14
	VPBROADCASTQ X14, Y14
	MOVQ         $0xbfe0000000000000, AX // -1/2
	VMOVQ        AX, X15
	VPBROADCASTQ X15, Y15

	XORQ CX, CX

loop:
	VMOVDQU    (SI)(CX*1), Y0
	VPSUBQ     Y6, Y0, Y1          // tmp = bits(u) - logTabOff
	VPSRLQ     $43, Y1, Y2
	VPAND      Y7, Y2, Y2          // 2*cell
	VPCMPEQD   Y3, Y3, Y3
	VPXOR      Y4, Y4, Y4
	VGATHERQPD Y3, (DX)(Y2*8), Y4  // invc
	VPCMPEQD   Y3, Y3, Y3
	VPXOR      Y5, Y5, Y5
	VGATHERQPD Y3, 8(DX)(Y2*8), Y5 // logc
	VPAND      Y8, Y1, Y0
	VPADDQ     Y6, Y0, Y0          // z
	VMULPD     Y4, Y0, Y0
	VSUBPD     Y9, Y0, Y0          // r
	VPSRLQ     $52, Y1, Y1
	VPXOR      Y10, Y1, Y1
	VSUBPD     Y10, Y1, Y1         // k
	VMULPD     Y11, Y1, Y1
	VADDPD     Y5, Y1, Y1          // k*ln2 + logc
	VMULPD     Y12, Y0, Y2
	VADDPD     Y13, Y2, Y2
	VMULPD     Y2, Y0, Y2
	VADDPD     Y14, Y2, Y2
	VMULPD     Y2, Y0, Y2
	VADDPD     Y15, Y2, Y2         // -1/2 + r*(1/3 + r*(-1/4 + r*(1/5)))
	VMULPD     Y0, Y0, Y3
	VMULPD     Y2, Y3, Y3
	VADDPD     Y3, Y0, Y3          // r + (r*r)*(...)
	VADDPD     Y3, Y1, Y1
	VMOVUPD    Y1, (DI)(CX*1)
	ADDQ       $32, CX
	CMPQ       CX, $2048
	JNE        loop

	VZEROUPPER
	RET
