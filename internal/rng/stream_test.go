package rng

import (
	"math"
	"testing"
)

// The whole point of Stream: a draw depends only on (key, counter,
// index), never on call order.
func TestStreamOrderIndependent(t *testing.T) {
	s := NewStream(42)
	forward := make([]float64, 64)
	for i := range forward {
		forward[i] = s.NormZig(7, uint64(i))
	}
	for i := len(forward) - 1; i >= 0; i-- {
		if got := s.NormZig(7, uint64(i)); got != forward[i] {
			t.Fatalf("index %d: reverse-order draw %v != forward draw %v", i, got, forward[i])
		}
	}
	// Interleaving counters must not disturb either stream.
	for i := range forward {
		_ = s.NormZig(8, uint64(i))
		if got := s.NormZig(7, uint64(i)); got != forward[i] {
			t.Fatalf("index %d: draw after counter interleave changed", i)
		}
	}
}

func TestStreamDecorrelated(t *testing.T) {
	s := NewStream(1)
	// Neighbouring coordinates must not produce correlated gaussians.
	const n = 4096
	var sumXY, sumX, sumY float64
	for i := 0; i < n; i++ {
		x := s.NormZig(0, uint64(i))
		y := s.NormZig(0, uint64(i+1))
		sumXY += x * y
		sumX += x
		sumY += y
	}
	corr := (sumXY/n - (sumX/n)*(sumY/n))
	if math.Abs(corr) > 0.05 {
		t.Fatalf("adjacent-index correlation %v, want ~0", corr)
	}
	// Distinct seeds diverge.
	if NewStream(1).NormZig(0, 0) == NewStream(2).NormZig(0, 0) {
		t.Fatal("different stream keys produced identical draws")
	}
	// Distinct counters diverge.
	if s.NormZig(0, 0) == s.NormZig(1, 0) {
		t.Fatal("different counters produced identical draws")
	}
}

func TestStreamMomentsGaussian(t *testing.T) {
	s := NewStream(99)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := s.NormZig(3, uint64(i))
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("mean %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("variance %v, want ~1", variance)
	}
}

func TestStreamAtMatchesNorm(t *testing.T) {
	s := NewStream(7)
	for i := uint64(0); i < 16; i++ {
		if got, want := s.At(5, i).NormZiggurat(), s.NormZig(5, i); got != want {
			t.Fatalf("At(5,%d).NormZiggurat() = %v, NormZig(5,%d) = %v", i, got, i, want)
		}
	}
}
