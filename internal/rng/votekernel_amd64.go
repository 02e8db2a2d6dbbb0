//go:build amd64 && !purego

package rng

// haveAVX512 gates the vectorized packed-vote hot pass. Mutable so the
// package's differential tests can force the portable pass on capable
// hosts; everything outside the tests treats it as a constant.
var haveAVX512 = detectAVX512()

// packedZigVotesAVX512 is the AVX-512 hot pass of PackedZigVotes: it
// resolves nWords full 64-lane words, 8 lanes per instruction, writing
// proven vote masks, the slow-lane masks and each lane's raw draw.
// Implemented in votekernel_amd64.s; only called when haveAVX512 is
// true.
//
//go:noescape
func packedZigVotesAVX512(ctrState uint64, idxMul *uint64, nWords uint64,
	classTab *uint64, xtLo *float32, xtHi *float32,
	votes *uint64, slow *uint64, draws *uint64)

// packedZigEdgeAVX512 is the dense slow-lane edge resolver: for
// nGroups*8 compressed lane positions it settles round-1 accepts,
// bounded layer-edge accepts/rejects and the rejects' follow-up draw
// with exact float64 arithmetic, writing one resolved bit and one vote
// bit per lane (bit k of byte k/8). Unresolved lanes replay the
// canonical scalar sampler. Implemented in votekernel_edge_amd64.s.
//
//go:noescape
func packedZigEdgeAVX512(ctrState uint64, cPos *uint32, nGroups uint64,
	idxMul *uint64, draws *uint64, xt *float64, pack *uint64,
	loHi *float64, resolved *uint8, votes *uint8)

// cpuid executes CPUID with the given leaf/subleaf.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (XCR0).
func xgetbv() (eax, edx uint32)

// detectAVX512 reports whether the host and OS support the AVX-512
// F/DQ/VL instructions the kernel uses (vpmullq, vcvtuqq2ps, gathers,
// byte opmask ops, 256-bit float32 mask compares).
func detectAVX512() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, c, _ := cpuid(1, 0)
	const osxsave = 1 << 27
	if c&osxsave == 0 {
		return false
	}
	// OS must enable XMM+YMM (bits 1-2) and opmask+ZMM (bits 5-7) state.
	xlo, _ := xgetbv()
	if xlo&0x06 != 0x06 || xlo&0xe0 != 0xe0 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	const avx512f = 1 << 16
	const avx512dq = 1 << 17
	const avx512vl = 1 << 31
	return b&avx512f != 0 && b&avx512dq != 0 && b&avx512vl != 0
}
