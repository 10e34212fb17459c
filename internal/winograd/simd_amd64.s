#include "textflag.h"

// func ewmmSSE(acc *float32, lda int, f *float32, ldf int, x *float32, groups, nn, nc int)
//
// For each group of 16 filter columns and each pair of tiles n, n+1:
// load the accumulators acc[n][16g:16g+16] into X0-X3 and
// acc[n+1][16g:16g+16] into X4-X7; for each channel c in ascending
// order, load f[c][16g:16g+16] into X8-X11, broadcast x[n][c] into X12
// and x[n+1][c] into X13, multiply and add; store the accumulators. An
// odd last tile takes the same steps on X0-X3 alone. Registers: DI
// and SI the group's accumulator and filter columns, R8 and R9 the
// acc and f row strides in bytes, R10 the inputs, R11 the groups left,
// R12 nn, R13 nc, AX and BX the tile's accumulator and input rows, CX
// the tiles left, DX the channel's filter row, R14 the channel.
TEXT ·ewmmSSE(SB), NOSPLIT, $0-64
	MOVQ acc+0(FP), DI
	MOVQ lda+8(FP), R8
	SHLQ $2, R8
	MOVQ f+16(FP), SI
	MOVQ ldf+24(FP), R9
	SHLQ $2, R9
	MOVQ x+32(FP), R10
	MOVQ groups+40(FP), R11
	MOVQ nn+48(FP), R12
	MOVQ nc+56(FP), R13

group:
	MOVQ DI, AX
	MOVQ R10, BX
	MOVQ R12, CX

pair:
	CMPQ CX, $2
	JLT  single
	MOVUPS 0(AX), X0
	MOVUPS 16(AX), X1
	MOVUPS 32(AX), X2
	MOVUPS 48(AX), X3
	MOVUPS 0(AX)(R8*1), X4
	MOVUPS 16(AX)(R8*1), X5
	MOVUPS 32(AX)(R8*1), X6
	MOVUPS 48(AX)(R8*1), X7
	MOVQ SI, DX
	XORQ R14, R14

pairChannel:
	MOVUPS 0(DX), X8
	MOVUPS 16(DX), X9
	MOVUPS 32(DX), X10
	MOVUPS 48(DX), X11
	MOVSS  (BX)(R14*4), X12
	SHUFPS $0, X12, X12
	MOVSS  32(BX)(R14*4), X13 // x[n+1][c]: x rows are bc = 8 floats apart
	SHUFPS $0, X13, X13
	MOVAPS X8, X14
	MULPS  X12, X14
	ADDPS  X14, X0
	MOVAPS X9, X14
	MULPS  X12, X14
	ADDPS  X14, X1
	MOVAPS X10, X14
	MULPS  X12, X14
	ADDPS  X14, X2
	MOVAPS X11, X14
	MULPS  X12, X14
	ADDPS  X14, X3
	MULPS  X13, X8
	ADDPS  X8, X4
	MULPS  X13, X9
	ADDPS  X9, X5
	MULPS  X13, X10
	ADDPS  X10, X6
	MULPS  X13, X11
	ADDPS  X11, X7
	ADDQ R9, DX
	INCQ R14
	CMPQ R14, R13
	JLT  pairChannel
	MOVUPS X0, 0(AX)
	MOVUPS X1, 16(AX)
	MOVUPS X2, 32(AX)
	MOVUPS X3, 48(AX)
	MOVUPS X4, 0(AX)(R8*1)
	MOVUPS X5, 16(AX)(R8*1)
	MOVUPS X6, 32(AX)(R8*1)
	MOVUPS X7, 48(AX)(R8*1)
	LEAQ (AX)(R8*2), AX
	ADDQ $64, BX
	SUBQ $2, CX
	JMP  pair

single:
	CMPQ CX, $0
	JEQ  next
	MOVUPS 0(AX), X0
	MOVUPS 16(AX), X1
	MOVUPS 32(AX), X2
	MOVUPS 48(AX), X3
	MOVQ SI, DX
	XORQ R14, R14

singleChannel:
	MOVSS  (BX)(R14*4), X12
	SHUFPS $0, X12, X12
	MOVUPS 0(DX), X8
	MULPS  X12, X8
	ADDPS  X8, X0
	MOVUPS 16(DX), X9
	MULPS  X12, X9
	ADDPS  X9, X1
	MOVUPS 32(DX), X10
	MULPS  X12, X10
	ADDPS  X10, X2
	MOVUPS 48(DX), X11
	MULPS  X12, X11
	ADDPS  X11, X3
	ADDQ R9, DX
	INCQ R14
	CMPQ R14, R13
	JLT  singleChannel
	MOVUPS X0, 0(AX)
	MOVUPS X1, 16(AX)
	MOVUPS X2, 32(AX)
	MOVUPS X3, 48(AX)

next:
	ADDQ $64, DI
	ADDQ $64, SI
	DECQ R11
	JNZ  group
	RET

// func outputSSE(acc *float32, estride int, out *float32, sh, sw, sk, groups int)
//
// For each group of four filters: the tile's element e = 4r+c is the
// vector at acc + e*estride, four filters wide. SI, AX, BX and DX point
// at rows r = 0..3 and R8, R8*2 and R12 step to columns 1..3. X0-X3
// hold t0[c] = m[c] + m[4+c] + m[8+c] and X4-X7 hold
// t1[c] = m[4+c] - m[8+c] - m[12+c], summed in transformOutput2's
// order; the 2x2 results are then stored lane by lane: filter k of the
// group at out + k*sk, plus sw (R10), sh (R9) or both (R13).
TEXT ·outputSSE(SB), NOSPLIT, $0-56
	MOVQ acc+0(FP), SI
	MOVQ estride+8(FP), R8
	SHLQ $2, R8
	MOVQ out+16(FP), DI
	MOVQ sh+24(FP), R9
	SHLQ $2, R9
	MOVQ sw+32(FP), R10
	SHLQ $2, R10
	MOVQ sk+40(FP), R11
	SHLQ $2, R11
	MOVQ groups+48(FP), CX
	LEAQ (R8)(R8*2), R12
	LEAQ (R9)(R10*1), R13
	LEAQ (SI)(R8*4), AX
	LEAQ (AX)(R8*4), BX
	LEAQ (BX)(R8*4), DX

outputGroup:
	MOVUPS (SI), X0
	MOVUPS (AX), X4
	MOVUPS (BX), X8
	MOVUPS (DX), X9
	ADDPS  X4, X0
	ADDPS  X8, X0
	SUBPS  X8, X4
	SUBPS  X9, X4
	MOVUPS (SI)(R8*1), X1
	MOVUPS (AX)(R8*1), X5
	MOVUPS (BX)(R8*1), X8
	MOVUPS (DX)(R8*1), X9
	ADDPS  X5, X1
	ADDPS  X8, X1
	SUBPS  X8, X5
	SUBPS  X9, X5
	MOVUPS (SI)(R8*2), X2
	MOVUPS (AX)(R8*2), X6
	MOVUPS (BX)(R8*2), X8
	MOVUPS (DX)(R8*2), X9
	ADDPS  X6, X2
	ADDPS  X8, X2
	SUBPS  X8, X6
	SUBPS  X9, X6
	MOVUPS (SI)(R12*1), X3
	MOVUPS (AX)(R12*1), X7
	MOVUPS (BX)(R12*1), X8
	MOVUPS (DX)(R12*1), X9
	ADDPS  X7, X3
	ADDPS  X8, X3
	SUBPS  X8, X7
	SUBPS  X9, X7
	ADDPS  X1, X0
	ADDPS  X2, X0 // out[0]
	SUBPS  X2, X1
	SUBPS  X3, X1 // out[sw]
	ADDPS  X5, X4
	ADDPS  X6, X4 // out[sh]
	SUBPS  X6, X5
	SUBPS  X7, X5 // out[sh+sw]
	MOVSS  X0, (DI)
	MOVSS  X1, (DI)(R10*1)
	MOVSS  X4, (DI)(R9*1)
	MOVSS  X5, (DI)(R13*1)
	ADDQ   R11, DI
	SHUFPS $0x39, X0, X0
	SHUFPS $0x39, X1, X1
	SHUFPS $0x39, X4, X4
	SHUFPS $0x39, X5, X5
	MOVSS  X0, (DI)
	MOVSS  X1, (DI)(R10*1)
	MOVSS  X4, (DI)(R9*1)
	MOVSS  X5, (DI)(R13*1)
	ADDQ   R11, DI
	SHUFPS $0x39, X0, X0
	SHUFPS $0x39, X1, X1
	SHUFPS $0x39, X4, X4
	SHUFPS $0x39, X5, X5
	MOVSS  X0, (DI)
	MOVSS  X1, (DI)(R10*1)
	MOVSS  X4, (DI)(R9*1)
	MOVSS  X5, (DI)(R13*1)
	ADDQ   R11, DI
	SHUFPS $0x39, X0, X0
	SHUFPS $0x39, X1, X1
	SHUFPS $0x39, X4, X4
	SHUFPS $0x39, X5, X5
	MOVSS  X0, (DI)
	MOVSS  X1, (DI)(R10*1)
	MOVSS  X4, (DI)(R9*1)
	MOVSS  X5, (DI)(R13*1)
	ADDQ   R11, DI
	ADDQ $16, SI
	ADDQ $16, AX
	ADDQ $16, BX
	ADDQ $16, DX
	DECQ CX
	JNZ  outputGroup
	RET
