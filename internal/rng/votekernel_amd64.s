//go:build amd64 && !purego

// Code generated for the packed ziggurat vote kernel. The hot pass
// resolves 16 lanes per classifier block: vpmullq SplitMix64 hash
// chains derive each lane's raw draw (8 lanes per instruction), one
// vpgatherqq per 8 lanes fetches the packed per-layer float32
// classifier, vpermt2d merges qword-lane pairs into 16-lane float32
// vectors, and float32 compares against the per-cell threshold
// brackets prove votes (or mark lanes slow for the exact scalar
// resolver). Raw draws are stored so slow lanes resume the canonical
// tape without re-hashing.

#include "textflag.h"

// func packedZigVotesAVX512(ctrState uint64, idxMul *uint64, nWords uint64,
//	classTab *uint64, xtLo *float32, xtHi *float32,
//	votes *uint64, slow *uint64, draws *uint64)
TEXT ·packedZigVotesAVX512(SB), NOSPLIT, $0-72
	MOVQ ctrState+0(FP), AX
	MOVQ idxMul+8(FP), R8
	MOVQ nWords+16(FP), CX
	MOVQ classTab+24(FP), R12
	MOVQ xtLo+32(FP), R9
	MOVQ xtHi+40(FP), R14
	MOVQ votes+48(FP), R10
	MOVQ slow+56(FP), R11
	MOVQ draws+64(FP), DI

	VPBROADCASTQ AX, Z20                 // ctrState
	MOVQ $0xbf58476d1ce4e5b9, BX
	VPBROADCASTQ BX, Z21                 // SplitMix64 multiplier 1
	MOVQ $0x94d049bb133111eb, BX
	VPBROADCASTQ BX, Z22                 // SplitMix64 multiplier 2
	MOVQ $0x9e3779b97f4a7c15, BX
	VPBROADCASTQ BX, Z23                 // Weyl gamma
	MOVQ $127, BX
	VPBROADCASTQ BX, Z24                 // layer mask
	MOVL $0x80000000, BX
	VPBROADCASTD BX, Z25                 // float32 sign bit
	MOVQ $lowdw<>(SB), BX
	VMOVDQU64 (BX), Z26                  // vpermt2d: low dwords of 16 qwords

word:
	XORQ DX, DX                          // vote accumulator
	XORQ SI, SI                          // slow accumulator

	// ---- lanes 0-15 ----
	VMOVDQU64 0(R8), Z0
	VPXORQ Z20, Z0, Z0           // ctrState ^ idxMul
	VPSRLQ $30, Z0, Z1            // mix64
	VPXORQ Z1, Z0, Z0
	VPMULLQ Z21, Z0, Z0
	VPSRLQ $27, Z0, Z1
	VPXORQ Z1, Z0, Z0
	VPMULLQ Z22, Z0, Z0
	VPSRLQ $31, Z0, Z1
	VPXORQ Z1, Z0, Z0         // per-lane Source state
	VPADDQ Z23, Z0, Z0           // Weyl step
	VPSRLQ $30, Z0, Z1            // output finalizer
	VPXORQ Z1, Z0, Z0
	VPMULLQ Z21, Z0, Z0
	VPSRLQ $27, Z0, Z1
	VPXORQ Z1, Z0, Z0
	VPMULLQ Z22, Z0, Z0
	VPSRLQ $31, Z0, Z1
	VPXORQ Z1, Z0, Z0         // u = raw draw
	VMOVDQU64 Z0, 0(DI)          // save draws for the slow resolver
	VMOVDQU64 64(R8), Z6
	VPXORQ Z20, Z6, Z6           // ctrState ^ idxMul
	VPSRLQ $30, Z6, Z1            // mix64
	VPXORQ Z1, Z6, Z6
	VPMULLQ Z21, Z6, Z6
	VPSRLQ $27, Z6, Z1
	VPXORQ Z1, Z6, Z6
	VPMULLQ Z22, Z6, Z6
	VPSRLQ $31, Z6, Z1
	VPXORQ Z1, Z6, Z6         // per-lane Source state
	VPADDQ Z23, Z6, Z6           // Weyl step
	VPSRLQ $30, Z6, Z1            // output finalizer
	VPXORQ Z1, Z6, Z6
	VPMULLQ Z21, Z6, Z6
	VPSRLQ $27, Z6, Z1
	VPXORQ Z1, Z6, Z6
	VPMULLQ Z22, Z6, Z6
	VPSRLQ $31, Z6, Z1
	VPXORQ Z1, Z6, Z6         // u = raw draw
	VMOVDQU64 Z6, 64(DI)          // save draws for the slow resolver
	VPANDQ Z24, Z0, Z2                   // layer indices, lanes 0-7
	KXNORB K0, K0, K1
	VPXORQ Z5, Z5, Z5                    // break gather output dependency
	VPGATHERQQ (R12)(Z2*8), K1, Z5       // packed {xScaledF32 | acceptF32<<32}
	VPANDQ Z24, Z6, Z7                   // layer indices, lanes 8-15
	KXNORB K0, K0, K2
	VPXORQ Z8, Z8, Z8
	VPGATHERQQ (R12)(Z7*8), K2, Z8
	VPSRLQ $11, Z0, Z3                   // 53-bit mantissas
	VPSRLQ $11, Z6, Z9
	VMOVDQA64 Z5, Z10
	VPERMT2D Z8, Z26, Z10                // xScaledF32, 16 float32 lanes
	VPSRLQ $32, Z5, Z5
	VPSRLQ $32, Z8, Z8
	VPERMT2D Z8, Z26, Z5                 // acceptF32, 16 float32 lanes
	VCVTUQQ2PS Z3, Y12                   // mf = float32(mantissa)
	VCVTUQQ2PS Z9, Y13
	VINSERTF32X8 $1, Y13, Z12, Z12       // mf, 16 lanes
	VMULPS Z10, Z12, Z13                 // ys = mf * xScaledF32
	VMOVDQA64 Z0, Z11
	VPERMT2D Z6, Z26, Z11                // u low dwords, 16 lanes
	VPSLLD $24, Z11, Z11                 // draw bit 7 -> float32 sign bit
	VPANDD Z25, Z11, Z11
	VPORD Z11, Z13, Z13                  // signed variate approximation
	VCMPPS $0x11, Z5, Z12, K3            // mf < acceptF32: proven common path
	VCMPPS $0x0D, 0(R14), Z13, K4    // ys >= xtHi: proven vote 1
	VCMPPS $0x11, 0(R9), Z13, K5     // ys < xtLo: proven vote 0
	KORW K5, K4, K6
	KANDW K6, K3, K6
	KNOTW K6, K6                         // slow = !(fast && proven)
	KMOVW K4, R13
	KMOVW K6, R15
	ORQ R13, DX
	ORQ R15, SI

	// ---- lanes 16-31 ----
	VMOVDQU64 128(R8), Z0
	VPXORQ Z20, Z0, Z0           // ctrState ^ idxMul
	VPSRLQ $30, Z0, Z1            // mix64
	VPXORQ Z1, Z0, Z0
	VPMULLQ Z21, Z0, Z0
	VPSRLQ $27, Z0, Z1
	VPXORQ Z1, Z0, Z0
	VPMULLQ Z22, Z0, Z0
	VPSRLQ $31, Z0, Z1
	VPXORQ Z1, Z0, Z0         // per-lane Source state
	VPADDQ Z23, Z0, Z0           // Weyl step
	VPSRLQ $30, Z0, Z1            // output finalizer
	VPXORQ Z1, Z0, Z0
	VPMULLQ Z21, Z0, Z0
	VPSRLQ $27, Z0, Z1
	VPXORQ Z1, Z0, Z0
	VPMULLQ Z22, Z0, Z0
	VPSRLQ $31, Z0, Z1
	VPXORQ Z1, Z0, Z0         // u = raw draw
	VMOVDQU64 Z0, 128(DI)          // save draws for the slow resolver
	VMOVDQU64 192(R8), Z6
	VPXORQ Z20, Z6, Z6           // ctrState ^ idxMul
	VPSRLQ $30, Z6, Z1            // mix64
	VPXORQ Z1, Z6, Z6
	VPMULLQ Z21, Z6, Z6
	VPSRLQ $27, Z6, Z1
	VPXORQ Z1, Z6, Z6
	VPMULLQ Z22, Z6, Z6
	VPSRLQ $31, Z6, Z1
	VPXORQ Z1, Z6, Z6         // per-lane Source state
	VPADDQ Z23, Z6, Z6           // Weyl step
	VPSRLQ $30, Z6, Z1            // output finalizer
	VPXORQ Z1, Z6, Z6
	VPMULLQ Z21, Z6, Z6
	VPSRLQ $27, Z6, Z1
	VPXORQ Z1, Z6, Z6
	VPMULLQ Z22, Z6, Z6
	VPSRLQ $31, Z6, Z1
	VPXORQ Z1, Z6, Z6         // u = raw draw
	VMOVDQU64 Z6, 192(DI)          // save draws for the slow resolver
	VPANDQ Z24, Z0, Z2                   // layer indices, lanes 0-7
	KXNORB K0, K0, K1
	VPXORQ Z5, Z5, Z5                    // break gather output dependency
	VPGATHERQQ (R12)(Z2*8), K1, Z5       // packed {xScaledF32 | acceptF32<<32}
	VPANDQ Z24, Z6, Z7                   // layer indices, lanes 8-15
	KXNORB K0, K0, K2
	VPXORQ Z8, Z8, Z8
	VPGATHERQQ (R12)(Z7*8), K2, Z8
	VPSRLQ $11, Z0, Z3                   // 53-bit mantissas
	VPSRLQ $11, Z6, Z9
	VMOVDQA64 Z5, Z10
	VPERMT2D Z8, Z26, Z10                // xScaledF32, 16 float32 lanes
	VPSRLQ $32, Z5, Z5
	VPSRLQ $32, Z8, Z8
	VPERMT2D Z8, Z26, Z5                 // acceptF32, 16 float32 lanes
	VCVTUQQ2PS Z3, Y12                   // mf = float32(mantissa)
	VCVTUQQ2PS Z9, Y13
	VINSERTF32X8 $1, Y13, Z12, Z12       // mf, 16 lanes
	VMULPS Z10, Z12, Z13                 // ys = mf * xScaledF32
	VMOVDQA64 Z0, Z11
	VPERMT2D Z6, Z26, Z11                // u low dwords, 16 lanes
	VPSLLD $24, Z11, Z11                 // draw bit 7 -> float32 sign bit
	VPANDD Z25, Z11, Z11
	VPORD Z11, Z13, Z13                  // signed variate approximation
	VCMPPS $0x11, Z5, Z12, K3            // mf < acceptF32: proven common path
	VCMPPS $0x0D, 64(R14), Z13, K4    // ys >= xtHi: proven vote 1
	VCMPPS $0x11, 64(R9), Z13, K5     // ys < xtLo: proven vote 0
	KORW K5, K4, K6
	KANDW K6, K3, K6
	KNOTW K6, K6                         // slow = !(fast && proven)
	KMOVW K4, R13
	KMOVW K6, R15
	SHLQ $16, R13
	SHLQ $16, R15
	ORQ R13, DX
	ORQ R15, SI

	// ---- lanes 32-47 ----
	VMOVDQU64 256(R8), Z0
	VPXORQ Z20, Z0, Z0           // ctrState ^ idxMul
	VPSRLQ $30, Z0, Z1            // mix64
	VPXORQ Z1, Z0, Z0
	VPMULLQ Z21, Z0, Z0
	VPSRLQ $27, Z0, Z1
	VPXORQ Z1, Z0, Z0
	VPMULLQ Z22, Z0, Z0
	VPSRLQ $31, Z0, Z1
	VPXORQ Z1, Z0, Z0         // per-lane Source state
	VPADDQ Z23, Z0, Z0           // Weyl step
	VPSRLQ $30, Z0, Z1            // output finalizer
	VPXORQ Z1, Z0, Z0
	VPMULLQ Z21, Z0, Z0
	VPSRLQ $27, Z0, Z1
	VPXORQ Z1, Z0, Z0
	VPMULLQ Z22, Z0, Z0
	VPSRLQ $31, Z0, Z1
	VPXORQ Z1, Z0, Z0         // u = raw draw
	VMOVDQU64 Z0, 256(DI)          // save draws for the slow resolver
	VMOVDQU64 320(R8), Z6
	VPXORQ Z20, Z6, Z6           // ctrState ^ idxMul
	VPSRLQ $30, Z6, Z1            // mix64
	VPXORQ Z1, Z6, Z6
	VPMULLQ Z21, Z6, Z6
	VPSRLQ $27, Z6, Z1
	VPXORQ Z1, Z6, Z6
	VPMULLQ Z22, Z6, Z6
	VPSRLQ $31, Z6, Z1
	VPXORQ Z1, Z6, Z6         // per-lane Source state
	VPADDQ Z23, Z6, Z6           // Weyl step
	VPSRLQ $30, Z6, Z1            // output finalizer
	VPXORQ Z1, Z6, Z6
	VPMULLQ Z21, Z6, Z6
	VPSRLQ $27, Z6, Z1
	VPXORQ Z1, Z6, Z6
	VPMULLQ Z22, Z6, Z6
	VPSRLQ $31, Z6, Z1
	VPXORQ Z1, Z6, Z6         // u = raw draw
	VMOVDQU64 Z6, 320(DI)          // save draws for the slow resolver
	VPANDQ Z24, Z0, Z2                   // layer indices, lanes 0-7
	KXNORB K0, K0, K1
	VPXORQ Z5, Z5, Z5                    // break gather output dependency
	VPGATHERQQ (R12)(Z2*8), K1, Z5       // packed {xScaledF32 | acceptF32<<32}
	VPANDQ Z24, Z6, Z7                   // layer indices, lanes 8-15
	KXNORB K0, K0, K2
	VPXORQ Z8, Z8, Z8
	VPGATHERQQ (R12)(Z7*8), K2, Z8
	VPSRLQ $11, Z0, Z3                   // 53-bit mantissas
	VPSRLQ $11, Z6, Z9
	VMOVDQA64 Z5, Z10
	VPERMT2D Z8, Z26, Z10                // xScaledF32, 16 float32 lanes
	VPSRLQ $32, Z5, Z5
	VPSRLQ $32, Z8, Z8
	VPERMT2D Z8, Z26, Z5                 // acceptF32, 16 float32 lanes
	VCVTUQQ2PS Z3, Y12                   // mf = float32(mantissa)
	VCVTUQQ2PS Z9, Y13
	VINSERTF32X8 $1, Y13, Z12, Z12       // mf, 16 lanes
	VMULPS Z10, Z12, Z13                 // ys = mf * xScaledF32
	VMOVDQA64 Z0, Z11
	VPERMT2D Z6, Z26, Z11                // u low dwords, 16 lanes
	VPSLLD $24, Z11, Z11                 // draw bit 7 -> float32 sign bit
	VPANDD Z25, Z11, Z11
	VPORD Z11, Z13, Z13                  // signed variate approximation
	VCMPPS $0x11, Z5, Z12, K3            // mf < acceptF32: proven common path
	VCMPPS $0x0D, 128(R14), Z13, K4    // ys >= xtHi: proven vote 1
	VCMPPS $0x11, 128(R9), Z13, K5     // ys < xtLo: proven vote 0
	KORW K5, K4, K6
	KANDW K6, K3, K6
	KNOTW K6, K6                         // slow = !(fast && proven)
	KMOVW K4, R13
	KMOVW K6, R15
	SHLQ $32, R13
	SHLQ $32, R15
	ORQ R13, DX
	ORQ R15, SI

	// ---- lanes 48-63 ----
	VMOVDQU64 384(R8), Z0
	VPXORQ Z20, Z0, Z0           // ctrState ^ idxMul
	VPSRLQ $30, Z0, Z1            // mix64
	VPXORQ Z1, Z0, Z0
	VPMULLQ Z21, Z0, Z0
	VPSRLQ $27, Z0, Z1
	VPXORQ Z1, Z0, Z0
	VPMULLQ Z22, Z0, Z0
	VPSRLQ $31, Z0, Z1
	VPXORQ Z1, Z0, Z0         // per-lane Source state
	VPADDQ Z23, Z0, Z0           // Weyl step
	VPSRLQ $30, Z0, Z1            // output finalizer
	VPXORQ Z1, Z0, Z0
	VPMULLQ Z21, Z0, Z0
	VPSRLQ $27, Z0, Z1
	VPXORQ Z1, Z0, Z0
	VPMULLQ Z22, Z0, Z0
	VPSRLQ $31, Z0, Z1
	VPXORQ Z1, Z0, Z0         // u = raw draw
	VMOVDQU64 Z0, 384(DI)          // save draws for the slow resolver
	VMOVDQU64 448(R8), Z6
	VPXORQ Z20, Z6, Z6           // ctrState ^ idxMul
	VPSRLQ $30, Z6, Z1            // mix64
	VPXORQ Z1, Z6, Z6
	VPMULLQ Z21, Z6, Z6
	VPSRLQ $27, Z6, Z1
	VPXORQ Z1, Z6, Z6
	VPMULLQ Z22, Z6, Z6
	VPSRLQ $31, Z6, Z1
	VPXORQ Z1, Z6, Z6         // per-lane Source state
	VPADDQ Z23, Z6, Z6           // Weyl step
	VPSRLQ $30, Z6, Z1            // output finalizer
	VPXORQ Z1, Z6, Z6
	VPMULLQ Z21, Z6, Z6
	VPSRLQ $27, Z6, Z1
	VPXORQ Z1, Z6, Z6
	VPMULLQ Z22, Z6, Z6
	VPSRLQ $31, Z6, Z1
	VPXORQ Z1, Z6, Z6         // u = raw draw
	VMOVDQU64 Z6, 448(DI)          // save draws for the slow resolver
	VPANDQ Z24, Z0, Z2                   // layer indices, lanes 0-7
	KXNORB K0, K0, K1
	VPXORQ Z5, Z5, Z5                    // break gather output dependency
	VPGATHERQQ (R12)(Z2*8), K1, Z5       // packed {xScaledF32 | acceptF32<<32}
	VPANDQ Z24, Z6, Z7                   // layer indices, lanes 8-15
	KXNORB K0, K0, K2
	VPXORQ Z8, Z8, Z8
	VPGATHERQQ (R12)(Z7*8), K2, Z8
	VPSRLQ $11, Z0, Z3                   // 53-bit mantissas
	VPSRLQ $11, Z6, Z9
	VMOVDQA64 Z5, Z10
	VPERMT2D Z8, Z26, Z10                // xScaledF32, 16 float32 lanes
	VPSRLQ $32, Z5, Z5
	VPSRLQ $32, Z8, Z8
	VPERMT2D Z8, Z26, Z5                 // acceptF32, 16 float32 lanes
	VCVTUQQ2PS Z3, Y12                   // mf = float32(mantissa)
	VCVTUQQ2PS Z9, Y13
	VINSERTF32X8 $1, Y13, Z12, Z12       // mf, 16 lanes
	VMULPS Z10, Z12, Z13                 // ys = mf * xScaledF32
	VMOVDQA64 Z0, Z11
	VPERMT2D Z6, Z26, Z11                // u low dwords, 16 lanes
	VPSLLD $24, Z11, Z11                 // draw bit 7 -> float32 sign bit
	VPANDD Z25, Z11, Z11
	VPORD Z11, Z13, Z13                  // signed variate approximation
	VCMPPS $0x11, Z5, Z12, K3            // mf < acceptF32: proven common path
	VCMPPS $0x0D, 192(R14), Z13, K4    // ys >= xtHi: proven vote 1
	VCMPPS $0x11, 192(R9), Z13, K5     // ys < xtLo: proven vote 0
	KORW K5, K4, K6
	KANDW K6, K3, K6
	KNOTW K6, K6                         // slow = !(fast && proven)
	KMOVW K4, R13
	KMOVW K6, R15
	SHLQ $48, R13
	SHLQ $48, R15
	ORQ R13, DX
	ORQ R15, SI

	MOVQ DX, (R10)
	MOVQ SI, (R11)
	ADDQ $512, R8
	ADDQ $512, DI
	ADDQ $256, R9
	ADDQ $256, R14
	ADDQ $8, R10
	ADDQ $8, R11
	DECQ CX
	JNZ word

	VZEROUPPER
	RET

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
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// Dword indices selecting the low dword of each qword lane of
// concat(dst, src) — merges two 8-qword vectors into 16 dwords.
GLOBL lowdw<>(SB), RODATA|NOPTR, $64
DATA lowdw<>+0(SB)/4, $0
DATA lowdw<>+4(SB)/4, $2
DATA lowdw<>+8(SB)/4, $4
DATA lowdw<>+12(SB)/4, $6
DATA lowdw<>+16(SB)/4, $8
DATA lowdw<>+20(SB)/4, $10
DATA lowdw<>+24(SB)/4, $12
DATA lowdw<>+28(SB)/4, $14
DATA lowdw<>+32(SB)/4, $16
DATA lowdw<>+36(SB)/4, $18
DATA lowdw<>+40(SB)/4, $20
DATA lowdw<>+44(SB)/4, $22
DATA lowdw<>+48(SB)/4, $24
DATA lowdw<>+52(SB)/4, $26
DATA lowdw<>+56(SB)/4, $28
DATA lowdw<>+60(SB)/4, $30
