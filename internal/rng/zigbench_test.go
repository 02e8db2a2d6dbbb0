package rng

import "testing"

// Equivalence of the hoisted fast path against the canonical samplers.
func TestNormZigFromCtrMatchesNormZig(t *testing.T) {
	s := NewStream(0xfeed)
	for ctr := uint64(0); ctr < 64; ctr++ {
		cs := s.CtrState(ctr)
		for idx := uint64(0); idx < 4096; idx++ {
			want := s.NormZig(ctr, idx)
			got := NormZigFromCtr(cs, idx)
			if got != want {
				t.Fatalf("ctr=%d idx=%d: NormZigFromCtr=%v NormZig=%v", ctr, idx, got, want)
			}
		}
	}
}

var sinkF float64

func BenchmarkNormZigPointer(b *testing.B) {
	s := NewStream(0xfeed)
	norm := s.NormZig
	var acc float64
	for i := 0; i < b.N; i++ {
		acc += norm(uint64(i)>>16, uint64(i)&0xffff)
	}
	sinkF = acc
}

func BenchmarkNormZigFromCtr(b *testing.B) {
	s := NewStream(0xfeed)
	cs := s.CtrState(3)
	var acc float64
	for i := 0; i < b.N; i++ {
		acc += NormZigFromCtr(cs, uint64(i)&0xffff)
	}
	sinkF = acc
}
