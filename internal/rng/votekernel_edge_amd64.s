//go:build amd64 && !purego

// Dense AVX-512 edge resolver for the packed ziggurat vote kernel.
// Generated to match the exact semantics of fixSlowLanes's scalar
// replay: for each compressed slow lane it settles, with exact float64
// arithmetic, (a) round-1 common-path accepts the float32 classifier
// could not prove, (b) layer-edge draws whose height clears the
// precomputed exp bounds, and (c) for edge rejects, the next draw's
// common-path accept. Lanes it cannot settle (base-layer tail draws,
// exp-bound gaps, twice-rejected draws) stay unresolved and replay the
// canonical scalar sampler. Soundness: a lane is marked resolved only
// when the computed outcome is bit-identical to the canonical tape.

#include "textflag.h"

// func packedZigEdgeAVX512(ctrState uint64, cPos *uint32, nGroups uint64,
//	idxMul *uint64, draws *uint64, xt *float64, pack *uint64,
//	loHi *float64, resolved *uint8, votes *uint8)
TEXT ·packedZigEdgeAVX512(SB), NOSPLIT, $0-80
	MOVQ ctrState+0(FP), AX
	MOVQ cPos+8(FP), R8
	MOVQ nGroups+16(FP), CX
	MOVQ idxMul+24(FP), R9
	MOVQ draws+32(FP), R10
	MOVQ xt+40(FP), R11
	MOVQ pack+48(FP), R12
	MOVQ loHi+56(FP), R13
	MOVQ resolved+64(FP), R14
	MOVQ votes+72(FP), R15

	VPBROADCASTQ AX, Z20 // ctrState
	MOVQ $0xbf58476d1ce4e5b9, AX
	VPBROADCASTQ AX, Z21 // SplitMix64 multiplier 1
	MOVQ $0x94d049bb133111eb, AX
	VPBROADCASTQ AX, Z22 // SplitMix64 multiplier 2
	MOVQ $0x3c6ef372fe94f82a, AX
	VPBROADCASTQ AX, Z23 // 2*weylGamma
	MOVQ $0xdaa66d2c7ddf743f, AX
	VPBROADCASTQ AX, Z24 // 3*weylGamma
	MOVQ $127, AX
	VPBROADCASTQ AX, Z25 // layer mask
	MOVQ $128, AX
	VPBROADCASTQ AX, Z26 // sign bit of the draw
	MOVQ $0x3CA0000000000000, AX
	VPBROADCASTQ AX, Z27 // 2^-53
	MOVQ $7, AX
	VPBROADCASTQ AX, Z28 // zigEdgeSub-1 (subrange clamp)
	VPXORQ Z29, Z29, Z29 // zero

group:
	// Gather the compressed lanes' inputs by position.
	VMOVDQU (R8), Y0
	KXNORB  K0, K0, K1
	VPXORQ  Z1, Z1, Z1
	VPGATHERDQ (R9)(Y0*8), K1, Z1  // idxMul
	KXNORB  K0, K0, K2
	VPXORQ  Z2, Z2, Z2
	VPGATHERDQ (R10)(Y0*8), K2, Z2 // first draw u
	KXNORB  K0, K0, K3
	VPXORQ  Z3, Z3, Z3
	VPGATHERDQ (R11)(Y0*8), K3, Z3 // vote threshold xt

	// st = mix64(ctrState ^ idxMul)
	VPXORQ  Z20, Z1, Z1
	VPSRLQ  $30, Z1, Z4
	VPXORQ  Z4, Z1, Z1
	VPMULLQ Z21, Z1, Z1
	VPSRLQ  $27, Z1, Z4
	VPXORQ  Z4, Z1, Z1
	VPMULLQ Z22, Z1, Z1
	VPSRLQ  $31, Z1, Z4
	VPXORQ  Z4, Z1, Z1

	// Round 1: layer i, mantissa mi, packed-table row ip = i*8.
	VPANDQ  Z25, Z2, Z4
	VPSRLQ  $11, Z2, Z5
	VPSLLQ  $3, Z4, Z6
	KXNORB  K0, K0, K1
	VPXORQ  Z7, Z7, Z7
	VPGATHERQQ (R12)(Z6*8), K1, Z7
	KXNORB  K0, K0, K1
	VPXORQ  Z8, Z8, Z8
	VPGATHERQQ 8(R12)(Z6*8), K1, Z8
	KXNORB  K0, K0, K1
	VPXORQ  Z9, Z9, Z9
	VPGATHERQQ 16(R12)(Z6*8), K1, Z9
	KXNORB  K0, K0, K1
	VPXORQ  Z10, Z10, Z10
	VPGATHERQQ 24(R12)(Z6*8), K1, Z10
	KXNORB  K0, K0, K1
	VPXORQ  Z11, Z11, Z11
	VPGATHERQQ 32(R12)(Z6*8), K1, Z11

	// Exact variate ±x = sign(u) * fl(float64(mi) * zigXScaled[i]).
	VCVTUQQ2PD Z5, Z12
	VMULPD  Z7, Z12, Z12
	VPANDQ  Z26, Z2, Z13
	VPSLLQ  $56, Z13, Z13
	VPORQ   Z13, Z12, Z14
	VPCMPUQ $1, Z8, Z5, K4   // round-1 accept: mi < zigAccept[i]
	VCMPPD  $0x0D, Z3, Z14, K5 // vote: ±x >= xt
	VPTESTNMQ Z4, Z4, K6     // base layer (tail draw): unresolved

	// Edge height draw: u2 = fin(st + 2*gamma); L = zigF + f*zigEdgeD
	// with the canonical mul-then-add rounding (no FMA).
	VPADDQ  Z23, Z1, Z15
	VPSRLQ  $30, Z15, Z16
	VPXORQ  Z16, Z15, Z15
	VPMULLQ Z21, Z15, Z15
	VPSRLQ  $27, Z15, Z16
	VPXORQ  Z16, Z15, Z15
	VPMULLQ Z22, Z15, Z15
	VPSRLQ  $31, Z15, Z16
	VPXORQ  Z16, Z15, Z15
	VPSRLQ  $11, Z15, Z15
	VCVTUQQ2PD Z15, Z15
	VMULPD  Z27, Z15, Z15
	VMULPD  Z10, Z15, Z15
	VADDPD  Z9, Z15, Z15

	// Exp-bound subrange s = clamp(int((mi-acc)*scale), 0, 7); the
	// clamp also defuses the garbage of non-edge lanes before the
	// bounds gather. LoHi row index = (i*8 | s) * 2.
	VPSUBQ  Z8, Z5, Z16
	VCVTUQQ2PD Z16, Z16
	VMULPD  Z11, Z16, Z16
	VCVTTPD2QQ Z16, Z16
	VPMAXSQ Z29, Z16, Z16
	VPMINSQ Z28, Z16, Z16
	VPORQ   Z6, Z16, Z16
	VPSLLQ  $1, Z16, Z16
	KXNORB  K0, K0, K1
	VPXORQ  Z17, Z17, Z17
	VPGATHERQQ (R13)(Z16*8), K1, Z17
	KXNORB  K0, K0, K2
	VPXORQ  Z18, Z18, Z18
	VPGATHERQQ 8(R13)(Z16*8), K2, Z18
	VCMPPD  $0x11, Z17, Z15, K7 // L < Lo: edge accept

	// Round 2 (edge rejects): u3 = fin(st + 3*gamma), common-path
	// accept test and exact vote on the new draw.
	VPADDQ  Z24, Z1, Z19
	VPSRLQ  $30, Z19, Z16
	VPXORQ  Z16, Z19, Z19
	VPMULLQ Z21, Z19, Z19
	VPSRLQ  $27, Z19, Z16
	VPXORQ  Z16, Z19, Z19
	VPMULLQ Z22, Z19, Z19
	VPSRLQ  $31, Z19, Z16
	VPXORQ  Z16, Z19, Z19
	VPANDQ  Z25, Z19, Z4
	VPSRLQ  $11, Z19, Z5
	VPSLLQ  $3, Z4, Z6
	KXNORB  K0, K0, K1
	VPXORQ  Z7, Z7, Z7
	VPGATHERQQ (R12)(Z6*8), K1, Z7
	KXNORB  K0, K0, K2
	VPXORQ  Z8, Z8, Z8
	VPGATHERQQ 8(R12)(Z6*8), K2, Z8
	VCVTUQQ2PD Z5, Z12
	VMULPD  Z7, Z12, Z12
	VPANDQ  Z26, Z19, Z13
	VPSLLQ  $56, Z13, Z13
	VPORQ   Z13, Z12, Z12
	VCMPPD  $0x0D, Z18, Z15, K1 // edge reject: L >= Hi
	VPCMPUQ $1, Z8, Z5, K2      // round-2 accept: mi3 < zigAccept[i3]
	VCMPPD  $0x0D, Z3, Z12, K3  // round-2 vote: ±x3 >= xt

	// Combine: resolved = r1acc | edgeAcc | (edgeRej & r2acc), with the
	// edge masks confined to lanes that actually reached the edge test.
	KORB    K6, K4, K6
	KNOTB   K6, K6            // edge-active = ^(r1acc | tail)
	KANDB   K6, K7, K7
	KANDB   K6, K1, K1
	KANDB   K2, K1, K1        // edgeRej & r2acc
	KORB    K7, K4, K4        // r1acc | edgeAcc (vote from round-1 ±x)
	KANDB   K1, K3, K3        // round-2 vote contribution
	KORB    K4, K1, K1        // resolved
	KANDB   K5, K4, K4
	KORB    K3, K4, K4        // vote
	KMOVB   K1, AX
	MOVB    AL, (R14)
	KMOVB   K4, AX
	MOVB    AL, (R15)

	INCQ R14
	INCQ R15
	ADDQ $32, R8
	DECQ CX
	JNZ  group
	VZEROUPPER
	RET
