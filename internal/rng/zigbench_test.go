package rng

import "testing"

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
