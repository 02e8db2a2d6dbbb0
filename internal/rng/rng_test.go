package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSourceDeterminism(t *testing.T) {
	a := NewSource(42)
	b := NewSource(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("sources with equal seeds diverged at step %d", i)
		}
	}
}

func TestSourceSeedsDiffer(t *testing.T) {
	a := NewSource(1)
	b := NewSource(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

// TestSkipEqualsDraws: Skip(n) leaves a source exactly where n Uint64
// calls do, including across the state's wrap-around.
func TestSkipEqualsDraws(t *testing.T) {
	for _, seed := range []uint64{0, 42, 1<<64 - splitMixGamma, math.MaxUint64} {
		for _, n := range []uint64{0, 1, 2, 3, 17, 1000} {
			drawn, skipped := NewSource(seed), NewSource(seed)
			for i := uint64(0); i < n; i++ {
				drawn.Uint64()
			}
			skipped.Skip(n)
			if *drawn != *skipped {
				t.Fatalf("seed %#x: Skip(%d) state differs from %d draws", seed, n, n)
			}
			if a, b := drawn.Uint64(), skipped.Uint64(); a != b {
				t.Fatalf("seed %#x: next draw after Skip(%d) = %#x, after %d draws %#x", seed, n, b, n, a)
			}
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := NewSource(7)
	child := parent.Split()
	// The child stream must not simply replay the parent stream.
	p := NewSource(7)
	p.Uint64() // account for the draw Split consumed
	matches := 0
	for i := 0; i < 64; i++ {
		if child.Uint64() == p.Uint64() {
			matches++
		}
	}
	if matches > 2 {
		t.Fatalf("child stream tracks parent stream: %d/64 matches", matches)
	}
}

func TestIntnBounds(t *testing.T) {
	s := NewSource(99)
	for n := 1; n <= 64; n++ {
		for i := 0; i < 50; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewSource(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	s := NewSource(123)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[s.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: count %d deviates from %f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := NewSource(5)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestNormMoments(t *testing.T) {
	s := NewSource(2024)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := s.Norm()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("variance = %v, want ~1", variance)
	}
}

func TestNormScaled(t *testing.T) {
	s := NewSource(8)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.NormScaled(5, 2)
	}
	if mean := sum / n; math.Abs(mean-5) > 0.05 {
		t.Errorf("mean = %v, want ~5", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := NewSource(3)
	f := func(nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := s.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBytesFillsEveryLength(t *testing.T) {
	s := NewSource(4)
	for n := 0; n <= 33; n++ {
		b := make([]byte, n)
		s.Bytes(b)
		if n >= 16 {
			allZero := true
			for _, v := range b {
				if v != 0 {
					allZero = false
					break
				}
			}
			if allZero {
				t.Fatalf("Bytes left a %d-byte buffer all zero", n)
			}
		}
	}
}

func TestHashStringStableAndDistinct(t *testing.T) {
	if HashString("MSP432P401-0001") != HashString("MSP432P401-0001") {
		t.Fatal("HashString not stable")
	}
	if HashString("a") == HashString("b") {
		t.Fatal("HashString collides on trivial inputs")
	}
}

func TestLFSRPeriodNonTrivial(t *testing.T) {
	l := NewLFSR32(1)
	seen0 := false
	start := l.state
	for i := 0; i < 1<<16; i++ {
		v := l.Next()
		if v == 0 {
			seen0 = true
		}
		if v == start && i < 1<<16-1 {
			t.Fatalf("LFSR cycled after only %d steps", i+1)
		}
	}
	if seen0 {
		t.Fatal("LFSR reached the all-zero fixed point")
	}
}

func TestLFSRZeroSeedRemapped(t *testing.T) {
	l := NewLFSR32(0)
	if l.Next() == 0 {
		t.Fatal("zero-seeded LFSR stuck at zero")
	}
}

func TestGlibcLCGKnownSequence(t *testing.T) {
	// With x0 = 1 the glibc TYPE_0 recurrence yields 1103527590 first:
	// (1103515245*1 + 12345) mod 2^31 = 1103527590.
	g := NewGlibcLCG(1)
	want := []uint32{1103527590, 377401575, 662824084, 1147902781, 2035015474}
	for i, w := range want {
		if got := g.Next(); got != w {
			t.Fatalf("LCG step %d = %d, want %d", i, got, w)
		}
	}
}

func TestWorkloadWriterBalanced(t *testing.T) {
	w := NewWorkloadWriter(0xdeadbeef, 1024)
	ones := 0
	const words = 1 << 16
	for i := 0; i < words; i++ {
		v := w.NextWord()
		for ; v != 0; v &= v - 1 {
			ones++
		}
	}
	total := words * 32
	ratio := float64(ones) / float64(total)
	if ratio < 0.49 || ratio > 0.51 {
		t.Fatalf("workload bit ratio = %v, want ~0.5", ratio)
	}
}

func TestWorkloadWriterReseeds(t *testing.T) {
	// With a tiny reseed interval the sequence must differ from a pure LFSR.
	w := NewWorkloadWriter(1, 4)
	l := NewLFSR32(1)
	diverged := false
	for i := 0; i < 64; i++ {
		if w.NextWord() != l.Next() {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Fatal("workload writer never re-seeded from LCG")
	}
}

func TestWorkloadFillPartialWord(t *testing.T) {
	w := NewWorkloadWriter(7, 0)
	b := make([]byte, 7)
	w.Fill(b)
	nonZero := false
	for _, v := range b {
		if v != 0 {
			nonZero = true
		}
	}
	if !nonZero {
		t.Fatal("Fill left buffer zero")
	}
}

func BenchmarkSourceUint64(b *testing.B) {
	s := NewSource(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkWorkloadWord(b *testing.B) {
	w := NewWorkloadWriter(1, 0)
	for i := 0; i < b.N; i++ {
		_ = w.NextWord()
	}
}
