package rng

import (
	"math"
	"testing"
)

// zigLockBound is the open bound of the ziggurat common path: every
// accepted fast-path draw lies strictly inside (-zigLockBound,
// +zigLockBound). A vote threshold at or beyond it can only be crossed
// by a slow-path draw (layer edge or tail), so such cells vote by bias
// sign on every accepted draw.
const zigLockBound = zigR

// voteRef evaluates the canonical per-cell predicate the capture
// engines use: bias + sigma*NormZig(counter, index) > 0.
func voteRefZig(s Stream, ctr, idx uint64, bias, sigma float64) bool {
	return bias+sigma*s.NormZig(ctr, idx) > 0
}

// TestVoteThresholdExact: for a dense grid of bias/sigma pairs, the
// threshold form `x >= VoteThreshold(bias, sigma)` must agree with the
// direct predicate for draws straddling the boundary.
func TestVoteThresholdExact(t *testing.T) {
	sigmas := []float64{1e-6, 0.3, 1.2, 7.5, 123.4}
	biases := []float64{-500, -9.6, -1.2, -1e-9, 0, 1e-9, 0.7, 9.6, 500}
	for _, sigma := range sigmas {
		for _, bias := range biases {
			xt := VoteThreshold(bias, sigma)
			// Probe the exact boundary and a few ulps either side, plus
			// representative draws across the support.
			probes := []float64{xt, -8, -3.44, -1, 0, 1, 3.44, 8}
			for i, x := 0, xt; i < 4; i++ {
				x = math.Nextafter(x, math.Inf(-1))
				probes = append(probes, x)
			}
			for i, x := 0, xt; i < 4; i++ {
				x = math.Nextafter(x, math.Inf(1))
				probes = append(probes, x)
			}
			for _, x := range probes {
				if math.IsInf(x, 0) || math.IsNaN(x) {
					continue
				}
				want := bias+sigma*x > 0
				got := x >= xt
				if got != want {
					t.Fatalf("bias=%v sigma=%v x=%v: threshold form %v, predicate %v (xt=%v)",
						bias, sigma, x, got, want, xt)
				}
			}
		}
	}
	// Degenerate sigma: constant predicates.
	if xt := VoteThreshold(3, 0); !math.IsInf(xt, -1) {
		t.Fatalf("VoteThreshold(3, 0) = %v, want -Inf", xt)
	}
	if xt := VoteThreshold(-3, 0); !math.IsInf(xt, 1) {
		t.Fatalf("VoteThreshold(-3, 0) = %v, want +Inf", xt)
	}
	if xt := VoteThreshold(0, 0); !math.IsInf(xt, 1) {
		t.Fatalf("VoteThreshold(0, 0) = %v, want +Inf", xt)
	}
}

// TestVoteThresholdSearchAgreesWithWalk: the binary-search fallback and
// the ulp walk must land on the same threshold.
func TestVoteThresholdSearchAgreesWithWalk(t *testing.T) {
	for _, c := range []struct{ bias, sigma float64 }{
		{-4.2, 1.2}, {3.3, 0.7}, {0, 1}, {-1e-30, 1e3}, {1e30, 1e-3},
	} {
		walk := VoteThreshold(c.bias, c.sigma)
		search := voteThresholdSearch(c.bias, c.sigma)
		if walk != search && !(math.IsInf(walk, 0) && walk == search) {
			t.Fatalf("bias=%v sigma=%v: walk %v, search %v", c.bias, c.sigma, walk, search)
		}
	}
}

// packedFixture builds a packed noisy-cell workload: n cells with
// scattered indices and biases spanning locked, mid and razor-thin
// thresholds (all three lock classes asserted present).
func packedFixture(t testing.TB, n int, sigma float64) (idxMul []uint64, xt []float64, xtLo, xtHi []float32, idx []uint64, bias []float64) {
	biasPool := []float64{-9.5, -6, -4.2, -4.131, -1.7, -0.3, -1e-7, 0,
		1e-7, 0.4, 1.9, 4.131, 4.2, 6, 9.5}
	idxMul = make([]uint64, n)
	xt = make([]float64, n)
	xtLo = make([]float32, n)
	xtHi = make([]float32, n)
	idx = make([]uint64, n)
	bias = make([]float64, n)
	var mid, lockPos, lockNeg int
	for j := 0; j < n; j++ {
		idx[j] = uint64(j)*7 + 13 // scattered, strictly increasing
		idxMul[j] = IdxMul(idx[j])
		bias[j] = biasPool[j%len(biasPool)]
		xt[j] = VoteThreshold(bias[j], sigma)
		xtLo[j], xtHi[j] = VoteBoundsF32(xt[j])
		switch {
		case xt[j] <= -zigLockBound:
			lockPos++
		case xt[j] >= zigLockBound:
			lockNeg++
		default:
			mid++
		}
	}
	if n >= len(biasPool) && (mid == 0 || lockPos == 0 || lockNeg == 0) {
		t.Fatalf("fixture must cover all threshold classes: mid=%d lockPos=%d lockNeg=%d",
			mid, lockPos, lockNeg)
	}
	return
}

// TestPackedZigVotesMatchesScalarPredicate: the packed kernel must
// reproduce the canonical per-cell predicate bit for bit across many
// races (covering slow-path draws), including tail words.
func TestPackedZigVotesMatchesScalarPredicate(t *testing.T) {
	s := NewStream(0x5eed)
	const sigma = 1.2
	for _, n := range []int{1, 63, 64, 65, 200} {
		idxMul, xt, xtLo, xtHi, idx, bias := packedFixture(t, n, sigma)
		nw := (n + 63) / 64
		votes := make([]uint64, nw)
		slow := make([]uint64, nw)
		draws := make([]uint64, n)
		for ctr := uint64(0); ctr < 500; ctr++ {
			PackedZigVotes(s.CtrState(ctr), idxMul, xt, xtLo, xtHi, votes, slow, draws)
			for j := 0; j < n; j++ {
				want := voteRefZig(s, ctr, idx[j], bias[j], sigma)
				if (votes[j/64]>>(j%64)&1 == 1) != want {
					t.Fatalf("n=%d ctr=%d cell=%d bias=%v: kernel vote %v, scalar %v",
						n, ctr, j, bias[j], votes[j/64]>>(j%64)&1 == 1, want)
				}
			}
		}
	}
}

// TestPackedZigVotesASMMatchesGo: on AVX-512 hosts, the vector and the
// portable hot passes must produce identical vote AND slow masks.
func TestPackedZigVotesASMMatchesGo(t *testing.T) {
	if !haveAVX512 {
		t.Skip("no AVX-512 on this host")
	}
	s := NewStream(0xa5a5)
	const sigma = 1.3
	const n = 64 * 9
	idxMul, _, xtLo, xtHi, _, _ := packedFixture(t, n, sigma)
	const nw = n / 64
	votesA := make([]uint64, nw)
	slowA := make([]uint64, nw)
	drawsA := make([]uint64, n)
	votesG := make([]uint64, nw)
	slowG := make([]uint64, nw)
	drawsG := make([]uint64, n)
	for ctr := uint64(0); ctr < 2000; ctr++ {
		cs := s.CtrState(ctr)
		packedZigVotesAVX512(cs, &idxMul[0], nw, &zigClassF32[0], &xtLo[0], &xtHi[0], &votesA[0], &slowA[0], &drawsA[0])
		packedZigVotesGo(cs, idxMul, xtLo, xtHi, votesG, slowG, drawsG)
		for j := 0; j < n; j++ {
			if drawsA[j] != drawsG[j] {
				t.Fatalf("ctr=%d lane=%d: asm draw %#x, go draw %#x", ctr, j, drawsA[j], drawsG[j])
			}
		}
		for w := 0; w < nw; w++ {
			if slowA[w] != slowG[w] {
				t.Fatalf("ctr=%d word=%d: asm slow %#x, go slow %#x", ctr, w, slowA[w], slowG[w])
			}
			// Vote bits are speculative garbage on slow lanes in both
			// passes; compare only the meaningful ones.
			if keep := ^slowA[w]; votesA[w]&keep != votesG[w]&keep {
				t.Fatalf("ctr=%d word=%d: asm votes %#x, go votes %#x (slow %#x)",
					ctr, w, votesA[w], votesG[w], slowA[w])
			}
		}
	}
}

var sinkU64 uint64

// benchmarkPacked times a packed race over n noisy cells; ns/op covers
// n draws.
func benchmarkPacked(b *testing.B, n int, forceGo bool) {
	if forceGo && !haveAVX512 {
		b.Skip("portable pass is the only pass on this host")
	}
	if forceGo {
		defer func(v bool) { haveAVX512 = v }(haveAVX512)
		haveAVX512 = false
	}
	s := NewStream(0xfeed)
	idxMul, xt, xtLo, xtHi, _, _ := packedFixture(b, n, 1.2)
	votes := make([]uint64, (n+63)/64)
	slow := make([]uint64, (n+63)/64)
	draws := make([]uint64, n)
	b.SetBytes(int64(n))
	var acc uint64
	for i := 0; i < b.N; i++ {
		PackedZigVotes(s.CtrState(uint64(i)), idxMul, xt, xtLo, xtHi, votes, slow, draws)
		acc ^= votes[0]
	}
	sinkU64 = acc
}

func BenchmarkPackedZigVotes8k(b *testing.B)   { benchmarkPacked(b, 8192, false) }
func BenchmarkPackedZigVotes8kGo(b *testing.B) { benchmarkPacked(b, 8192, true) }

// TestFixSlowLanesDenseMatchesScalar: the dense AVX-512 edge resolver
// and the plain scalar replay must produce identical vote words. Large
// n so every race compresses enough slow lanes to exercise full vector
// groups plus a sub-group tail.
func TestFixSlowLanesDenseMatchesScalar(t *testing.T) {
	if !haveAVX512 {
		t.Skip("no AVX-512 on this host")
	}
	s := NewStream(0xdead)
	const sigma = 1.1
	const n = 4096
	idxMul, xt, xtLo, xtHi, _, _ := packedFixture(t, n, sigma)
	const nw = n / 64
	votesD := make([]uint64, nw)
	votesS := make([]uint64, nw)
	slow := make([]uint64, nw)
	slow2 := make([]uint64, nw)
	draws := make([]uint64, n)
	for ctr := uint64(0); ctr < 400; ctr++ {
		cs := s.CtrState(ctr)
		packedZigVotesAVX512(cs, &idxMul[0], nw, &zigClassF32[0], &xtLo[0], &xtHi[0], &votesD[0], &slow[0], &draws[0])
		copy(votesS, votesD)
		copy(slow2, slow)
		fixSlowLanes(cs, idxMul, xt, votesD, slow, draws) // dense path
		haveAVX512 = false
		fixSlowLanes(cs, idxMul, xt, votesS, slow2, draws) // scalar path
		haveAVX512 = true
		for w := 0; w < nw; w++ {
			if votesD[w] != votesS[w] {
				t.Fatalf("ctr=%d word=%d: dense votes %#x, scalar votes %#x (slow %#x)",
					ctr, w, votesD[w], votesS[w], slow2[w])
			}
		}
	}
}
