//go:build !amd64 || purego

package rng

// Non-amd64 hosts, and builds tagged purego, always run the portable
// packed-vote pass. Kept a var (never assigned outside tests) so test
// helpers that restore it compile on every platform.
var haveAVX512 = false

func packedZigVotesAVX512(ctrState uint64, idxMul *uint64, nWords uint64,
	classTab *uint64, xtLo *float32, xtHi *float32,
	votes *uint64, slow *uint64, draws *uint64) {
	panic("rng: packedZigVotesAVX512 unavailable")
}

func packedZigEdgeAVX512(ctrState uint64, cPos *uint32, nGroups uint64,
	idxMul *uint64, draws *uint64, xt *float64, pack *uint64,
	loHi *float64, resolved *uint8, votes *uint8) {
	panic("rng: packedZigEdgeAVX512 unavailable")
}
