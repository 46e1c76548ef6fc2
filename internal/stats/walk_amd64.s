#include "textflag.h"

// func walkBlock(lg *[256]float64, i, n int, dst []uint32, gaps []GeometricGap, ends []int, c, pos, t int) (ni, nc, npos, nlen int)
//
// UniformBlock.AppendColumns's walk, four lanes per step. A step loads
// lg[i:i+4] and brackets each lane's reference quotient q plus one:
//	y = lg*inv
//	lo = y*(1-gapSlack) + (1-gapSlack),  hi = y*(1+gapSlack) + (1+gapSlack)
// which is certify's bracket [y-e, y+e], e = gapSlack*(1+y), shifted by
// one. y >= 0, so lo > 0 and truncation is floor: a lane is certified when
// int32(lo) == int32(hi) >= 0, and then int32(lo) = floor(q)+1, its gap
// plus one. A lane whose hi reaches 2^31 converts to the int32 indefinite
// value (negative) and is not certified. The lanes' positions are pos plus
// the in-register prefix sums of those int32s; a position at or above t,
// compared unsigned, ends the column. A certified lane's gap is below 2^29
// (its bracket, 2e-9*(1+y) wide, holds no integer), so the first position
// past t cannot wrap.
//
// The step stores all four positions at dst[len:len+4] and, when every
// lane is certified and none ends the column, moves on four lanes.
// Otherwise it keeps the lanes before the first that is not both, k. If
// lane k is certified it ends the column: the walk takes its uniform,
// records ends[c] and starts the next column. If not, the walk returns
// with lane k untaken, for the Go walk to decide. Lanes past k are never
// kept, and the next step or column overwrites their stores.
//
// A column's inv is gaps[c].inv (stride 16, offset 8); the walk returns at
// a column whose inv is not below 0 (p outside (0, 1)), at the end of
// gaps, and when fewer than 4 lanes or 4 free dst slots are left.
//
// Registers: DI lg, SI lane, R8 n-4, DX dst, R9 len, R10 cap-4, R11 gaps,
// R12 len(gaps), R13 ends, BX column; X15 t and X14 pos in every int32
// lane, Y13 inv, Y12 1-gapSlack, Y10 1+gapSlack, Y7 0. Every vector
// instruction is VEX-encoded, as in logBlock.
TEXT ·walkBlock(SB), NOSPLIT, $0-152
	MOVQ lg+0(FP), DI
	MOVQ i+8(FP), SI
	MOVQ n+16(FP), R8
	SUBQ $4, R8
	MOVQ dst_base+24(FP), DX
	MOVQ dst_len+32(FP), R9
	MOVQ dst_cap+40(FP), R10
	SUBQ $4, R10
	MOVQ gaps_base+48(FP), R11
	MOVQ gaps_len+56(FP), R12
	MOVQ ends_base+72(FP), R13
	MOVQ c+96(FP), BX

	MOVQ         $0x3fefffffff768fa1, AX // 1 - gapSlack
	VMOVQ        AX, X12
	VBROADCASTSD X12, Y12
	MOVQ         $0x3ff000000044b830, AX // 1 + gapSlack
	VMOVQ        AX, X10
	VBROADCASTSD X10, Y10
	VPXOR        Y7, Y7, Y7
	MOVQ         pos+104(FP), AX
	VMOVD        AX, X14
	VPBROADCASTD X14, X14
	MOVQ         t+112(FP), AX
	VMOVD        AX, X15
	VPBROADCASTD X15, X15

col:
	CMPQ         BX, R12
	JGE          done
	MOVQ         BX, AX
	SHLQ         $4, AX
	VBROADCASTSD 8(R11)(AX*1), Y13 // inv
	VCMPPD       $0x11, Y7, Y13, Y0 // inv < 0
	VMOVMSKPD    Y0, AX
	TESTL        $1, AX
	JZ           done

step:
	CMPQ SI, R8
	JGT  done
	CMPQ R9, R10
	JGT  done

	VMULPD      (DI)(SI*8), Y13, Y0 // y
	VMULPD      Y12, Y0, Y1
	VADDPD      Y12, Y1, Y1         // lo
	VMULPD      Y10, Y0, Y2
	VADDPD      Y10, Y2, Y2         // hi
	VCVTTPD2DQY Y1, X1              // gap+1 where certified
	VCVTTPD2DQY Y2, X2
	VPCMPEQD    X1, X2, X3
	VPCMPGTD    X2, X7, X5          // hi past the int32 range
	VPANDN      X3, X5, X3          // certified
	VPSLLDQ     $4, X1, X4
	VPADDD      X4, X1, X1
	VPSLLDQ     $8, X1, X4
	VPADDD      X4, X1, X1          // prefix sums
	VPADDD      X14, X1, X0         // positions
	VPMAXUD     X15, X0, X4
	VPCMPEQD    X4, X0, X4          // position >= t: ends the column
	VMOVDQU     X0, (DX)(R9*4)
	VPANDN      X3, X4, X5          // certified and not ending the column
	VMOVMSKPS   X5, AX
	CMPL        AX, $15
	JNE         stop
	VPSHUFD     $0xff, X0, X14      // pos: the last lane's position
	ADDQ        $4, SI
	ADDQ        $4, R9
	JMP         step

stop:
	NOTL      AX
	BSFL      AX, CX // k
	ADDQ      CX, SI
	ADDQ      CX, R9
	VMOVMSKPS X3, AX
	BTL       CX, AX
	JCC       uncertified
	INCQ      SI              // lane k ends column c
	MOVQ      R9, (R13)(BX*8)
	INCQ      BX
	VPCMPEQD  X14, X14, X14   // pos = -1
	JMP       col

uncertified:
	TESTQ CX, CX
	JZ    done
	MOVL  -4(DX)(R9*4), AX // pos: lane k-1's position
	JMP   ret

done:
	VMOVD   X14, AX
	MOVLQSX AX, AX

ret:
	MOVQ SI, ni+120(FP)
	MOVQ BX, nc+128(FP)
	MOVQ AX, npos+136(FP)
	MOVQ R9, nlen+144(FP)
	VZEROUPPER
	RET
