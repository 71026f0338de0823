//go:build amd64 && !purego

#include "textflag.h"

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// Registers of microAVX2: SI, DI and R8 walk the three rows, DX the panel's
// first group (the other groups are R10, 2·R10 and R11 = 3·R10 bytes further),
// CX counts the samples left.  Y12–Y14 hold the
// rows' broadcast sample, Y15 a product, and Y0–Y11 the accumulators: row i,
// columns 4q … 4q+3 in Y(4i+q).

// BCAST broadcasts the current sample of each row.
#define BCAST \
	VBROADCASTSD (SI), Y12; \
	VBROADCASTSD (DI), Y13; \
	VBROADCASTSD (R8), Y14

// COLS4 multiplies the three rows' samples into the four panel columns at
// addr and adds each product into its row's accumulator: a
// rounded multiply, then a rounded add, as the scalar loop does.
#define COLS4(addr, a0, a1, a2) \
	VMULPD addr, Y12, Y15; \
	VADDPD Y15, a0, a0;    \
	VMULPD addr, Y13, Y15; \
	VADDPD Y15, a1, a1;    \
	VMULPD addr, Y14, Y15; \
	VADDPD Y15, a2, a2

// NEXT steps to the next sample and sets ZF on the last.
#define NEXT \
	ADDQ $8, SI;  \
	ADDQ $8, DI;  \
	ADDQ $8, R8;  \
	ADDQ $32, DX; \
	DECQ CX

// func microAVX2(x0, x1, x2, panel *float64, m, width int, out *[3][16]float64)
TEXT ·microAVX2(SB), NOSPLIT, $0-56
	MOVQ x0+0(FP), SI
	MOVQ x1+8(FP), DI
	MOVQ x2+16(FP), R8
	MOVQ panel+24(FP), DX
	MOVQ m+32(FP), CX
	MOVQ width+40(FP), R9
	MOVQ out+48(FP), AX
	MOVQ CX, R10
	SHLQ $5, R10          // a group: 4·m samples of 8 bytes
	LEAQ (R10)(R10*2), R11

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11

	TESTQ CX, CX
	JZ    store
	CMPQ  R9, $16
	JEQ   width16
	CMPQ  R9, $12
	JEQ   width12
	CMPQ  R9, $8
	JEQ   width8

width4:
	BCAST
	COLS4((DX), Y0, Y4, Y8)
	NEXT
	JNZ width4
	JMP store

width8:
	BCAST
	COLS4((DX), Y0, Y4, Y8)
	COLS4((DX)(R10*1), Y1, Y5, Y9)
	NEXT
	JNZ width8
	JMP store

width12:
	BCAST
	COLS4((DX), Y0, Y4, Y8)
	COLS4((DX)(R10*1), Y1, Y5, Y9)
	COLS4((DX)(R10*2), Y2, Y6, Y10)
	NEXT
	JNZ width12
	JMP store

width16:
	BCAST
	COLS4((DX), Y0, Y4, Y8)
	COLS4((DX)(R10*1), Y1, Y5, Y9)
	COLS4((DX)(R10*2), Y2, Y6, Y10)
	COLS4((DX)(R11*1), Y3, Y7, Y11)
	NEXT
	JNZ width16

store:
	VMOVUPD Y0, 0(AX)
	VMOVUPD Y1, 32(AX)
	VMOVUPD Y2, 64(AX)
	VMOVUPD Y3, 96(AX)
	VMOVUPD Y4, 128(AX)
	VMOVUPD Y5, 160(AX)
	VMOVUPD Y6, 192(AX)
	VMOVUPD Y7, 224(AX)
	VMOVUPD Y8, 256(AX)
	VMOVUPD Y9, 288(AX)
	VMOVUPD Y10, 320(AX)
	VMOVUPD Y11, 352(AX)
	VZEROUPPER
	RET
