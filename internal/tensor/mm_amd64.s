//go:build amd64 && !purego

#include "textflag.h"

// func hasAVX() bool
//
// CPUID.1:ECX bit 28 (AVX) and bit 27 (OSXSAVE), then XGETBV to confirm
// the OS context-switches XMM+YMM state (XCR0 bits 1 and 2).
TEXT ·hasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  noavx
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  noavx
	MOVB $1, ret+0(FP)
	RET

noavx:
	MOVB $0, ret+0(FP)
	RET

// func mmRowAVX(dst, a, b *float32, astride, k, n, j8, acc int)
//
// dst[j] (+)= sum over p in [0,k) of a[p*astride] * b[p*n+j], for
// j in [0, j8), j8 a multiple of 8. Column lanes are independent YMM
// lanes, each accumulating in ascending-p order from +0 with separate
// VMULPS/VADDPS (no FMA), then stored (acc=0) or added to dst once
// (acc=1) — bit-identical to the scalar kernels. Zero a-elements skip
// the whole rank-1 update (exact for finite data; see matmul.go).
//
// Register use:
//	DI dst base   SI a base      BX b base
//	R8 astride*4  R9 k           R10 n*4 (b row stride)
//	R11 j8*4      R12 acc flag   R13 j byte offset
//	DX a cursor   CX b cursor    R15 p countdown   AX dst block addr
//	X15 zero (compare)  Y0-Y3 accumulators  X4/Y4 a element  Y5 b row
TEXT ·mmRowAVX(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ astride+24(FP), R8
	MOVQ k+32(FP), R9
	MOVQ n+40(FP), R10
	MOVQ j8+48(FP), R11
	MOVQ acc+56(FP), R12
	SHLQ $2, R8
	SHLQ $2, R10
	SHLQ $2, R11
	VXORPS X15, X15, X15

	XORQ R13, R13

jloop:
	MOVQ R11, R14
	SUBQ R13, R14
	CMPQ R14, $128
	JGE  block32
	CMPQ R14, $32
	JGE  block8
	VZEROUPPER
	RET

// 32 columns per pass: four YMM accumulators amortize the scalar
// a-element load/test/broadcast over 32 multiply-adds.
block32:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	MOVQ SI, DX
	LEAQ (BX)(R13*1), CX
	MOVQ R9, R15

p32:
	// VEX-encoded scalar load: legacy MOVSS here would merge into X4's
	// dirty YMM upper half and serialize the loop on that false
	// dependency (SSE/AVX transition penalty).
	VMOVSS   (DX), X4
	VUCOMISS X15, X4
	JE       p32next
	VBROADCASTSS (DX), Y4
	VMOVUPS  (CX), Y5
	VMULPS   Y4, Y5, Y5
	VADDPS   Y5, Y0, Y0
	VMOVUPS  32(CX), Y5
	VMULPS   Y4, Y5, Y5
	VADDPS   Y5, Y1, Y1
	VMOVUPS  64(CX), Y5
	VMULPS   Y4, Y5, Y5
	VADDPS   Y5, Y2, Y2
	VMOVUPS  96(CX), Y5
	VMULPS   Y4, Y5, Y5
	VADDPS   Y5, Y3, Y3

p32next:
	ADDQ R8, DX
	ADDQ R10, CX
	DECQ R15
	JNZ  p32

	LEAQ  (DI)(R13*1), AX
	TESTQ R12, R12
	JZ    store32
	VADDPS (AX), Y0, Y0
	VADDPS 32(AX), Y1, Y1
	VADDPS 64(AX), Y2, Y2
	VADDPS 96(AX), Y3, Y3

store32:
	VMOVUPS Y0, (AX)
	VMOVUPS Y1, 32(AX)
	VMOVUPS Y2, 64(AX)
	VMOVUPS Y3, 96(AX)
	ADDQ $128, R13
	JMP  jloop

// 8-column tail blocks.
block8:
	VXORPS Y0, Y0, Y0
	MOVQ SI, DX
	LEAQ (BX)(R13*1), CX
	MOVQ R9, R15

p8:
	VMOVSS   (DX), X4
	VUCOMISS X15, X4
	JE       p8next
	VBROADCASTSS (DX), Y4
	VMOVUPS  (CX), Y5
	VMULPS   Y4, Y5, Y5
	VADDPS   Y5, Y0, Y0

p8next:
	ADDQ R8, DX
	ADDQ R10, CX
	DECQ R15
	JNZ  p8

	LEAQ  (DI)(R13*1), AX
	TESTQ R12, R12
	JZ    store8
	VADDPS (AX), Y0, Y0

store8:
	VMOVUPS Y0, (AX)
	ADDQ $32, R13
	JMP  jloop

// func adamAVX(val, grad, m, v *float32, n8 int, b1, c1, b2, c2 float32, lr, eps float64)
//
// One Adam update over [0, n8), n8 a multiple of 8, eight parameters per
// pass:
//
//	m = b1*m + c1*g;  v = b2*v + (c2*g)*g            (float32)
//	val -= float32(lr*float64(m) / (sqrt(float64(v)) + eps))
//
// Every operation rounds individually, in the scalar loop's order:
// VMULPS/VADDPS for the moments (no FMA), then VCVTPS2PD, VMULPD,
// VSQRTPD, VADDPD, VDIVPD and VCVTPD2PS on two 4-wide double halves,
// all correctly rounded under the default MXCSR — bit-identical to
// adamScalar.
//
// Register use:
//	DI val   SI grad   DX m   CX v   AX byte offset   R8 n8*4
//	Y8 b1  Y9 c1  Y10 b2  Y11 c2  Y12 lr  Y13 eps
//	Y0 g  Y1 m  Y3 v  Y5-Y7 double halves and the step
TEXT ·adamAVX(SB), NOSPLIT, $0-72
	MOVQ val+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ m+16(FP), DX
	MOVQ v+24(FP), CX
	MOVQ n8+32(FP), R8
	VBROADCASTSS b1+40(FP), Y8
	VBROADCASTSS c1+44(FP), Y9
	VBROADCASTSS b2+48(FP), Y10
	VBROADCASTSS c2+52(FP), Y11
	VBROADCASTSD lr+56(FP), Y12
	VBROADCASTSD eps+64(FP), Y13
	SHLQ  $2, R8
	XORQ  AX, AX
	TESTQ R8, R8
	JZ    adamdone

adamloop:
	VMOVUPS (SI)(AX*1), Y0
	VMULPS  (DX)(AX*1), Y8, Y1
	VMULPS  Y0, Y9, Y2
	VADDPS  Y2, Y1, Y1
	VMOVUPS Y1, (DX)(AX*1)
	VMULPS  (CX)(AX*1), Y10, Y3
	VMULPS  Y0, Y11, Y4
	VMULPS  Y0, Y4, Y4
	VADDPS  Y4, Y3, Y3
	VMOVUPS Y3, (CX)(AX*1)

	// Lanes 0-3.
	VCVTPS2PD  X1, Y5
	VMULPD     Y12, Y5, Y5
	VCVTPS2PD  X3, Y6
	VSQRTPD    Y6, Y6
	VADDPD     Y13, Y6, Y6
	VDIVPD     Y6, Y5, Y5
	VCVTPD2PSY Y5, X5

	// Lanes 4-7.
	VEXTRACTF128 $1, Y1, X1
	VEXTRACTF128 $1, Y3, X3
	VCVTPS2PD    X1, Y6
	VMULPD       Y12, Y6, Y6
	VCVTPS2PD    X3, Y7
	VSQRTPD      Y7, Y7
	VADDPD       Y13, Y7, Y7
	VDIVPD       Y7, Y6, Y6
	VCVTPD2PSY   Y6, X6

	VINSERTF128 $1, X6, Y5, Y5
	VMOVUPS     (DI)(AX*1), Y7
	VSUBPS      Y5, Y7, Y7
	VMOVUPS     Y7, (DI)(AX*1)
	ADDQ $32, AX
	CMPQ AX, R8
	JLT  adamloop

adamdone:
	VZEROUPPER
	RET
