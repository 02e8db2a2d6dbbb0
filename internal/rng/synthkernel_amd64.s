//go:build amd64 && !purego

// The mismatch-synthesis kernels (see synthkernel.go): eight cells per
// instruction, every float64 operation the scalar code performs, in its
// order, unfused. The SIN, COS and LOG macros replay math.Sin,
// math.Cos and math.Log (log_amd64.s) on eight lanes; MIX and UNIFORM
// replay Source.Uint64's finalizer and Float64. Macros use Z5-Z12 and
// K1-K2 as scratch and read constants through R11.

#include "textflag.h"

// Offsets into synthc<>.
#define C_SIGN   0
#define C_ABS    8
#define C_4PI    16
#define C_PI4A   24
#define C_PI4B   32
#define C_PI4C   40
#define C_ONE    48
#define C_HALF   56
#define C_SIN0   64
#define C_SIN1   72
#define C_SIN2   80
#define C_SIN3   88
#define C_SIN4   96
#define C_SIN5   104
#define C_COS0   112
#define C_COS1   120
#define C_COS2   128
#define C_COS3   136
#define C_COS4   144
#define C_COS5   152
#define C_I1     160
#define C_I2     168
#define C_MANT   176
#define C_EXPM   184
#define C_BIAS   192
#define C_HSQRT2 200
#define C_TWO    208
#define C_L1     216
#define C_L2     224
#define C_L3     232
#define C_L4     240
#define C_L5     248
#define C_L6     256
#define C_L7     264
#define C_LN2HI  272
#define C_LN2LO  280
#define C_M2     288
#define C_2PI    296
#define C_ULP53  304
#define C_EIGHT  312
#define C_GAMMA  320
#define C_MIX1   328
#define C_MIX2   336
#define C_LANEF  344
#define C_LANE1  408

// OCTANT: ax = |x|, j = uint64(ax·(4/π)) rounded up to even, y =
// float64(j), z = ((ax − y·PI4A) − y·PI4B) − y·PI4C, zz = z·z.
// Leaves j in Z6, z in Z8 and zz in Z9.
#define OCTANT(x) \
	VPANDQ.BCST C_ABS(R11), x, Z5; \
	VMULPD.BCST C_4PI(R11), Z5, Z6; \
	VCVTTPD2UQQ Z6, Z6; \
	VPANDQ.BCST C_I1(R11), Z6, Z7; \
	VPADDQ Z7, Z6, Z6; \
	VCVTUQQ2PD Z6, Z7; \
	VMULPD.BCST C_PI4A(R11), Z7, Z9; \
	VSUBPD Z9, Z5, Z8; \
	VMULPD.BCST C_PI4B(R11), Z7, Z9; \
	VSUBPD Z9, Z8, Z8; \
	VMULPD.BCST C_PI4C(R11), Z7, Z9; \
	VSUBPD Z9, Z8, Z8; \
	VMULPD Z8, Z8, Z9

// POLYS: Z10 = (1 − 0.5·zz) + (zz·zz)·Pcos(zz) and
// Z11 = z + (z·zz)·Psin(zz), each Horner form in math's order.
#define POLYS \
	VMULPD.BCST C_COS0(R11), Z9, Z10; \
	VADDPD.BCST C_COS1(R11), Z10, Z10; \
	VMULPD Z9, Z10, Z10; \
	VADDPD.BCST C_COS2(R11), Z10, Z10; \
	VMULPD Z9, Z10, Z10; \
	VADDPD.BCST C_COS3(R11), Z10, Z10; \
	VMULPD Z9, Z10, Z10; \
	VADDPD.BCST C_COS4(R11), Z10, Z10; \
	VMULPD Z9, Z10, Z10; \
	VADDPD.BCST C_COS5(R11), Z10, Z10; \
	VMULPD Z9, Z9, Z11; \
	VMULPD Z10, Z11, Z10; \
	VMULPD.BCST C_HALF(R11), Z9, Z11; \
	VBROADCASTSD C_ONE(R11), Z12; \
	VSUBPD Z11, Z12, Z11; \
	VADDPD Z10, Z11, Z10; \
	VMULPD.BCST C_SIN0(R11), Z9, Z11; \
	VADDPD.BCST C_SIN1(R11), Z11, Z11; \
	VMULPD Z9, Z11, Z11; \
	VADDPD.BCST C_SIN2(R11), Z11, Z11; \
	VMULPD Z9, Z11, Z11; \
	VADDPD.BCST C_SIN3(R11), Z11, Z11; \
	VMULPD Z9, Z11, Z11; \
	VADDPD.BCST C_SIN4(R11), Z11, Z11; \
	VMULPD Z9, Z11, Z11; \
	VADDPD.BCST C_SIN5(R11), Z11, Z11; \
	VMULPD Z9, Z8, Z12; \
	VMULPD Z11, Z12, Z11; \
	VADDPD Z11, Z8, Z11

// SIN: res = math.Sin(x) for |x| < 2^29. Octant bit 1 picks the cosine
// polynomial; the sign is x's, flipped by octant bit 2; ±0 returns x.
#define SIN(x, res) \
	OCTANT(x); \
	POLYS; \
	VPTESTMQ.BCST C_I2(R11), Z6, K1; \
	VBLENDMPD Z10, Z11, K1, res; \
	VPSLLQ $61, Z6, Z7; \
	VPXORQ x, Z7, Z7; \
	VPANDQ.BCST C_SIGN(R11), Z7, Z7; \
	VPXORQ Z7, res, res; \
	VPTESTNMQ.BCST C_ABS(R11), x, K2; \
	VMOVAPD x, K2, res

// COS: res = math.Cos(x) for |x| < 2^29. Octant bit 1 picks the sine
// polynomial; the sign flips by octant bit 1 xor bit 2.
#define COS(x, res) \
	OCTANT(x); \
	POLYS; \
	VPTESTMQ.BCST C_I2(R11), Z6, K1; \
	VBLENDMPD Z11, Z10, K1, res; \
	VPSLLQ $62, Z6, Z7; \
	VPSLLQ $61, Z6, Z8; \
	VPXORQ Z8, Z7, Z7; \
	VPANDQ.BCST C_SIGN(R11), Z7, Z7; \
	VPXORQ Z7, res, res

// LOG: res = math.Log(x) for positive finite x, in log_amd64.s's
// order: f1 and k by bit masks; k −= 1 and f1 ·= 2 when f1 ≤ √2/2;
// f = f1 − 1; s = f/(2+f); R = s²·(L1+s⁴(L3+s⁴(L5+s⁴L7))) +
// s⁴·(L2+s⁴(L4+s⁴L6)); hfsq = 0.5·f·f;
// k·Ln2Hi − ((hfsq − (s·(hfsq+R) + k·Ln2Lo)) − f).
#define LOG(x, res) \
	VPANDQ.BCST C_MANT(R11), x, Z5; \
	VPORQ.BCST C_HALF(R11), Z5, Z5; \
	VPSRLQ $52, x, Z6; \
	VPANDQ.BCST C_EXPM(R11), Z6, Z6; \
	VPSUBQ.BCST C_BIAS(R11), Z6, Z6; \
	VCVTQQ2PD Z6, Z6; \
	VCMPPD.BCST $0x02, C_HSQRT2(R11), Z5, K1; \
	VSUBPD.BCST C_ONE(R11), Z6, K1, Z6; \
	VADDPD Z5, Z5, K1, Z5; \
	VSUBPD.BCST C_ONE(R11), Z5, Z5; \
	VADDPD.BCST C_TWO(R11), Z5, Z7; \
	VDIVPD Z7, Z5, Z7; \
	VMULPD Z7, Z7, Z8; \
	VMULPD Z8, Z8, Z9; \
	VMULPD.BCST C_L7(R11), Z9, Z10; \
	VADDPD.BCST C_L5(R11), Z10, Z10; \
	VMULPD Z9, Z10, Z10; \
	VADDPD.BCST C_L3(R11), Z10, Z10; \
	VMULPD Z9, Z10, Z10; \
	VADDPD.BCST C_L1(R11), Z10, Z10; \
	VMULPD Z10, Z8, Z8; \
	VMULPD.BCST C_L6(R11), Z9, Z10; \
	VADDPD.BCST C_L4(R11), Z10, Z10; \
	VMULPD Z9, Z10, Z10; \
	VADDPD.BCST C_L2(R11), Z10, Z10; \
	VMULPD Z10, Z9, Z9; \
	VADDPD Z9, Z8, Z8; \
	VMULPD.BCST C_HALF(R11), Z5, Z9; \
	VMULPD Z5, Z9, Z9; \
	VADDPD Z9, Z8, Z8; \
	VMULPD Z8, Z7, Z7; \
	VMULPD.BCST C_LN2LO(R11), Z6, Z8; \
	VADDPD Z8, Z7, Z7; \
	VSUBPD Z7, Z9, Z9; \
	VSUBPD Z5, Z9, Z9; \
	VMULPD.BCST C_LN2HI(R11), Z6, Z6; \
	VSUBPD Z9, Z6, res

// MIX: z = SplitMix64's output finalizer of state z (t is scratch).
#define MIX(z, t) \
	VPSRLQ $30, z, t; \
	VPXORQ t, z, z; \
	VPMULLQ.BCST C_MIX1(R11), z, z; \
	VPSRLQ $27, z, t; \
	VPXORQ t, z, z; \
	VPMULLQ.BCST C_MIX2(R11), z, z; \
	VPSRLQ $31, z, t; \
	VPXORQ t, z, z

// UNIFORM: z = float64(z >> 11) / 2^53, as Source.Float64.
#define UNIFORM(z) \
	VPSRLQ $11, z, z; \
	VCVTUQQ2PD z, z; \
	VMULPD.BCST C_ULP53(R11), z, z

// WAVE: s += amp·sin((kr·r + kc·c) + phase) for one wave of the Field
// at SI; krr holds kr·r, Z1 the columns and Z2 the sum s.
#define WAVE(krr, kc, phase, amp) \
	VMULPD.BCST kc(SI), Z1, Z3; \
	VADDPD Z3, krr, Z3; \
	VADDPD.BCST phase(SI), Z3, Z3; \
	SIN(Z3, Z4); \
	VMULPD.BCST amp(SI), Z4, Z4; \
	VADDPD Z4, Z2, Z2

// func fieldRowAVX512(f *Field, r float64, out *float64, n uint64)
TEXT ·fieldRowAVX512(SB), NOSPLIT, $0-32
	MOVQ f+0(FP), SI
	MOVQ out+16(FP), DI
	MOVQ n+24(FP), CX
	MOVQ $synthc<>(SB), R11
	VBROADCASTSD r+8(FP), Z0
	VMULPD.BCST 128(SI), Z0, Z16 // tiltR·r
	VMULPD.BCST 0(SI), Z0, Z17   // kr·r, each wave
	VMULPD.BCST 32(SI), Z0, Z18
	VMULPD.BCST 64(SI), Z0, Z19
	VMULPD.BCST 96(SI), Z0, Z20
	VMOVUPD C_LANEF(R11), Z1     // columns 0-7
	VBROADCASTSD C_EIGHT(R11), Z21

fieldloop:
	VMULPD.BCST 136(SI), Z1, Z2  // tiltC·c
	VADDPD Z2, Z16, Z2           // s = tiltR·r + tiltC·c
	WAVE(Z17, 8, 16, 24)
	WAVE(Z18, 40, 48, 56)
	WAVE(Z19, 72, 80, 88)
	WAVE(Z20, 104, 112, 120)
	VMOVUPD Z2, (DI)
	VADDPD Z21, Z1, Z1
	ADDQ $64, DI
	SUBQ $8, CX
	JNZ fieldloop
	VZEROUPPER
	RET

// func whiteCellsAVX512(state, per uint64, w *White, field *float64, mean float64, out *float32, n uint64) uint64
TEXT ·whiteCellsAVX512(SB), NOSPLIT, $0-64
	MOVQ state+0(FP), AX
	MOVQ per+8(FP), BX
	MOVQ w+16(FP), DX
	MOVQ field+24(FP), SI
	MOVQ out+40(FP), DI
	MOVQ n+48(FP), CX
	MOVQ $synthc<>(SB), R11

	// Cell l's last draw is draw per·(l+1) of the sequence, so block
	// 0's last-draw states are state + per·(l+1)·γ; each block of eight
	// cells advances them by 8·per·γ.
	VPBROADCASTQ BX, Z0
	VPMULLQ C_LANE1(R11), Z0, Z0
	VPMULLQ.BCST C_GAMMA(R11), Z0, Z0
	VPBROADCASTQ AX, Z1
	VPADDQ Z1, Z0, Z27
	SHLQ $3, BX
	IMULQ C_GAMMA(R11), BX
	VPBROADCASTQ BX, Z28
	VPBROADCASTQ C_GAMMA(R11), Z31
	VBROADCASTSD mean+32(FP), Z26
	VPXORQ Z25, Z25, Z25
	XORQ R8, R8

whiteloop:
	// Draws per−3 (the defect test; unused when per is 2), per−2 and
	// per−1 of each cell, as uniforms in Z13, Z14 and Z15.
	VPSUBQ Z31, Z27, Z14
	VPSUBQ Z31, Z14, Z13
	VMOVDQA64 Z27, Z15
	MIX(Z13, Z0)
	MIX(Z14, Z0)
	MIX(Z15, Z0)
	UNIFORM(Z13)
	UNIFORM(Z14)
	UNIFORM(Z15)
	VCMPPD.BCST $0x11, 8(DX), Z13, K3      // defect: f0 < ExtremeFrac
	VCMPPD $0x00, Z25, Z14, K4             // u == 0
	KANDNB K4, K3, K4                      // Norm retries: ¬defect ∧ u == 0

	// Defect: ExtremeMin + f1·span, negated when f2 < 0.5.
	VMULPD.BCST 24(DX), Z14, Z16
	VADDPD.BCST 16(DX), Z16, Z16
	VCMPPD.BCST $0x11, C_HALF(R11), Z15, K5
	VPXORQ.BCST C_SIGN(R11), Z16, K5, Z16

	// Gaussian: 0 + σ·(Sqrt(−2·Log(u))·Cos(2π·v)).
	LOG(Z14, Z17)
	VMULPD.BCST C_M2(R11), Z17, Z17
	VSQRTPD Z17, Z17
	VMULPD.BCST C_2PI(R11), Z15, Z18
	COS(Z18, Z19)
	VMULPD Z19, Z17, Z17
	VMULPD.BCST 0(DX), Z17, Z17
	VADDPD Z17, Z25, Z17
	VMOVAPD Z16, K3, Z17

	// float32(white + (field − mean))
	VMOVUPD (SI), Z18
	VSUBPD Z26, Z18, Z18
	VADDPD Z18, Z17, Z17
	VCVTPD2PS Z17, Y17
	VMOVUPS Y17, (DI)

	KMOVB K4, AX
	TESTQ AX, AX
	JNZ whiteretry
	VPADDQ Z28, Z27, Z27
	ADDQ $64, SI
	ADDQ $32, DI
	ADDQ $8, R8
	CMPQ R8, CX
	JB whiteloop
	MOVQ R8, ret+56(FP)
	VZEROUPPER
	RET

whiteretry:
	BSFQ AX, AX
	ADDQ R8, AX
	MOVQ AX, ret+56(FP)
	VZEROUPPER
	RET

// func sinAVX512(x, out *float64, n uint64)
TEXT ·sinAVX512(SB), NOSPLIT, $0-24
	MOVQ x+0(FP), SI
	MOVQ out+8(FP), DI
	MOVQ n+16(FP), CX
	MOVQ $synthc<>(SB), R11

sinloop:
	VMOVUPD (SI), Z0
	SIN(Z0, Z1)
	VMOVUPD Z1, (DI)
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $8, CX
	JNZ sinloop
	VZEROUPPER
	RET

// func cosAVX512(x, out *float64, n uint64)
TEXT ·cosAVX512(SB), NOSPLIT, $0-24
	MOVQ x+0(FP), SI
	MOVQ out+8(FP), DI
	MOVQ n+16(FP), CX
	MOVQ $synthc<>(SB), R11

cosloop:
	VMOVUPD (SI), Z0
	COS(Z0, Z1)
	VMOVUPD Z1, (DI)
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $8, CX
	JNZ cosloop
	VZEROUPPER
	RET

// func logAVX512(x, out *float64, n uint64)
TEXT ·logAVX512(SB), NOSPLIT, $0-24
	MOVQ x+0(FP), SI
	MOVQ out+8(FP), DI
	MOVQ n+16(FP), CX
	MOVQ $synthc<>(SB), R11

logloop:
	VMOVUPD (SI), Z0
	LOG(Z0, Z1)
	VMOVUPD Z1, (DI)
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $8, CX
	JNZ logloop
	VZEROUPPER
	RET

// Constants: bit patterns of the float64 constants math's sin.go and
// log_amd64.s use, and SplitMix64's.
GLOBL synthc<>(SB), RODATA|NOPTR, $472
DATA synthc<>+0(SB)/8, $0x8000000000000000   // sign bit
DATA synthc<>+8(SB)/8, $0x7fffffffffffffff   // all but the sign
DATA synthc<>+16(SB)/8, $0x3ff45f306dc9c883  // 4/π
DATA synthc<>+24(SB)/8, $0x3fe921fb40000000  // PI4A
DATA synthc<>+32(SB)/8, $0x3e64442d00000000  // PI4B
DATA synthc<>+40(SB)/8, $0x3ce8469898cc5170  // PI4C
DATA synthc<>+48(SB)/8, $0x3ff0000000000000  // 1.0
DATA synthc<>+56(SB)/8, $0x3fe0000000000000  // 0.5
DATA synthc<>+64(SB)/8, $0x3de5d8fd1fd19ccd  // _sin[0]
DATA synthc<>+72(SB)/8, $0xbe5ae5e5a9291f5d  // _sin[1]
DATA synthc<>+80(SB)/8, $0x3ec71de3567d48a1  // _sin[2]
DATA synthc<>+88(SB)/8, $0xbf2a01a019bfdf03  // _sin[3]
DATA synthc<>+96(SB)/8, $0x3f8111111110f7d0  // _sin[4]
DATA synthc<>+104(SB)/8, $0xbfc5555555555548 // _sin[5]
DATA synthc<>+112(SB)/8, $0xbda8fa49a0861a9b // _cos[0]
DATA synthc<>+120(SB)/8, $0x3e21ee9d7b4e3f05 // _cos[1]
DATA synthc<>+128(SB)/8, $0xbe927e4f7eac4bc6 // _cos[2]
DATA synthc<>+136(SB)/8, $0x3efa01a019c844f5 // _cos[3]
DATA synthc<>+144(SB)/8, $0xbf56c16c16c14f91 // _cos[4]
DATA synthc<>+152(SB)/8, $0x3fa555555555554b // _cos[5]
DATA synthc<>+160(SB)/8, $1                  // octant bit 0
DATA synthc<>+168(SB)/8, $2                  // octant bit 1
DATA synthc<>+176(SB)/8, $0x000fffffffffffff // mantissa
DATA synthc<>+184(SB)/8, $0x7ff              // exponent field
DATA synthc<>+192(SB)/8, $0x3fe              // frexp's exponent bias
DATA synthc<>+200(SB)/8, $0x3fe6a09e667f3bcd // √2/2
DATA synthc<>+208(SB)/8, $0x4000000000000000 // 2.0
DATA synthc<>+216(SB)/8, $0x3fe5555555555593 // L1
DATA synthc<>+224(SB)/8, $0x3fd999999997fa04 // L2
DATA synthc<>+232(SB)/8, $0x3fd2492494229359 // L3
DATA synthc<>+240(SB)/8, $0x3fcc71c51d8e78af // L4
DATA synthc<>+248(SB)/8, $0x3fc7466496cb03de // L5
DATA synthc<>+256(SB)/8, $0x3fc39a09d078c69f // L6
DATA synthc<>+264(SB)/8, $0x3fc2f112df3e5244 // L7
DATA synthc<>+272(SB)/8, $0x3fe62e42fee00000 // Ln2Hi
DATA synthc<>+280(SB)/8, $0x3dea39ef35793c76 // Ln2Lo
DATA synthc<>+288(SB)/8, $0xc000000000000000 // -2.0
DATA synthc<>+296(SB)/8, $0x401921fb54442d18 // 2π
DATA synthc<>+304(SB)/8, $0x3ca0000000000000 // 2^-53
DATA synthc<>+312(SB)/8, $0x4020000000000000 // 8.0
DATA synthc<>+320(SB)/8, $0x9e3779b97f4a7c15 // SplitMix64 γ
DATA synthc<>+328(SB)/8, $0xbf58476d1ce4e5b9 // SplitMix64 multiplier 1
DATA synthc<>+336(SB)/8, $0x94d049bb133111eb // SplitMix64 multiplier 2
DATA synthc<>+344(SB)/8, $0x0000000000000000 // columns 0-7 as float64
DATA synthc<>+352(SB)/8, $0x3ff0000000000000
DATA synthc<>+360(SB)/8, $0x4000000000000000
DATA synthc<>+368(SB)/8, $0x4008000000000000
DATA synthc<>+376(SB)/8, $0x4010000000000000
DATA synthc<>+384(SB)/8, $0x4014000000000000
DATA synthc<>+392(SB)/8, $0x4018000000000000
DATA synthc<>+400(SB)/8, $0x401c000000000000
DATA synthc<>+408(SB)/8, $1                  // lanes 1-8
DATA synthc<>+416(SB)/8, $2
DATA synthc<>+424(SB)/8, $3
DATA synthc<>+432(SB)/8, $4
DATA synthc<>+440(SB)/8, $5
DATA synthc<>+448(SB)/8, $6
DATA synthc<>+456(SB)/8, $7
DATA synthc<>+464(SB)/8, $8
