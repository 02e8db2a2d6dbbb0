package stats

import (
	"math"
	"testing"
	"testing/quick"

	"invisiblebits/internal/rng"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || !approxEqual(s.Mean, 5, 1e-12) {
		t.Fatalf("summary = %+v", s)
	}
	if !approxEqual(s.Variance, 32.0/7.0, 1e-12) {
		t.Fatalf("variance = %v, want %v", s.Variance, 32.0/7.0)
	}
	if empty := Summarize(nil); empty.N != 0 {
		t.Fatalf("empty summary = %+v", empty)
	}
}

func TestWelchIdenticalSamplesHighP(t *testing.T) {
	src := rng.NewSource(11)
	a := make([]float64, 200)
	b := make([]float64, 200)
	for i := range a {
		a[i] = src.NormScaled(10, 2)
		b[i] = src.NormScaled(10, 2)
	}
	res, err := WelchTTest(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.POneTailed < 0.01 {
		t.Errorf("same-distribution samples rejected: p = %v", res.POneTailed)
	}
	if res.PTwoTailed < res.POneTailed {
		t.Errorf("two-tailed p < one-tailed p")
	}
}

func TestWelchSeparatedSamplesLowP(t *testing.T) {
	src := rng.NewSource(12)
	a := make([]float64, 100)
	b := make([]float64, 100)
	for i := range a {
		a[i] = src.NormScaled(10, 1)
		b[i] = src.NormScaled(12, 1)
	}
	res, err := WelchTTest(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.POneTailed > 1e-6 {
		t.Errorf("clearly separated samples not detected: p = %v", res.POneTailed)
	}
}

func TestWelchErrors(t *testing.T) {
	if _, err := WelchTTest([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("expected error for n=1 sample")
	}
	if _, err := WelchTTest([]float64{3, 3}, []float64{3, 3}); err == nil {
		t.Error("expected error for zero-variance samples")
	}
}

func TestMoranRandomFieldNearZero(t *testing.T) {
	src := rng.NewSource(21)
	const rows, cols = 128, 128
	field := make([]byte, rows*cols)
	for i := range field {
		field[i] = byte(src.Uint64() & 1)
	}
	res, err := MoranIBits(field, rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.I) > 0.02 {
		t.Errorf("random field Moran's I = %v, want ~0", res.I)
	}
	if !approxEqual(res.Expected, -1.0/float64(rows*cols-1), 1e-15) {
		t.Errorf("E[I] = %v", res.Expected)
	}
}

func TestMoranStructuredFieldHigh(t *testing.T) {
	// Left half 1s, right half 0s: strongly positively autocorrelated.
	const rows, cols = 64, 64
	field := make([]byte, rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols/2; c++ {
			field[r*cols+c] = 1
		}
	}
	res, err := MoranIBits(field, rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	if res.I < 0.9 {
		t.Errorf("half-plane Moran's I = %v, want near 1", res.I)
	}
	if res.PValue > 1e-6 {
		t.Errorf("structured field not significant: p = %v", res.PValue)
	}
}

func TestMoranCheckerboardNegative(t *testing.T) {
	const rows, cols = 32, 32
	field := make([]byte, rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			field[r*cols+c] = byte((r + c) & 1)
		}
	}
	res, err := MoranIBits(field, rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	if res.I > -0.9 {
		t.Errorf("checkerboard Moran's I = %v, want near -1", res.I)
	}
}

func TestMoranDegenerate(t *testing.T) {
	if _, err := MoranIBits(make([]byte, 16), 4, 4); err == nil {
		t.Error("constant field should be degenerate")
	}
	if _, err := MoranIBits([]byte{1, 0}, 2, 2); err == nil {
		t.Error("mismatched dims should error")
	}
}

func TestEntropyUniform(t *testing.T) {
	data := make([]byte, 256*64)
	for i := range data {
		data[i] = byte(i)
	}
	if h := ByteEntropy(data); !approxEqual(h, 8, 1e-12) {
		t.Errorf("uniform entropy = %v, want 8", h)
	}
	// The paper's normalized value for a clean SRAM: 8/256 = 0.03125.
	if nh := NormalizedByteEntropy(data); !approxEqual(nh, 0.03125, 1e-12) {
		t.Errorf("normalized entropy = %v, want 0.03125", nh)
	}
}

func TestEntropyDegenerate(t *testing.T) {
	data := make([]byte, 1024) // all zero bytes
	if h := ByteEntropy(data); h != 0 {
		t.Errorf("constant entropy = %v, want 0", h)
	}
	if h := ByteEntropy(nil); h != 0 {
		t.Errorf("empty entropy = %v, want 0", h)
	}
}

func TestPerSymbolEntropySums(t *testing.T) {
	src := rng.NewSource(31)
	data := make([]byte, 1<<16)
	src.Bytes(data)
	per := PerSymbolEntropy(data)
	var sum float64
	for _, v := range per {
		sum += v
	}
	if !approxEqual(sum, ByteEntropy(data), 1e-9) {
		t.Errorf("per-symbol contributions sum %v != total %v", sum, ByteEntropy(data))
	}
}

func TestBitEntropyAndCapacity(t *testing.T) {
	if !approxEqual(BitEntropy(0.5), 1, 1e-12) {
		t.Error("H(0.5) != 1")
	}
	if BitEntropy(0) != 0 || BitEntropy(1) != 0 {
		t.Error("H(0)/H(1) != 0")
	}
	// Capacity at the paper's 6.5% channel: 1 - H(0.065) ≈ 0.651.
	if c := BinarySymmetricChannelCapacity(0.065); !approxEqual(c, 0.651, 5e-3) {
		t.Errorf("BSC capacity(0.065) = %v", c)
	}
}

func TestHammingBasics(t *testing.T) {
	if w := HammingWeight([]byte{0xFF, 0x0F, 0x00}); w != 12 {
		t.Errorf("weight = %d", w)
	}
	if d := HammingDistance([]byte{0xFF}, []byte{0x0F}); d != 4 {
		t.Errorf("distance = %d", d)
	}
	if ber := BitErrorRate([]byte{0xFF, 0xFF}, []byte{0xFF, 0x00}); !approxEqual(ber, 0.5, 1e-12) {
		t.Errorf("ber = %v", ber)
	}
}

func TestHammingDistancePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on unequal lengths")
		}
	}()
	HammingDistance([]byte{1}, []byte{1, 2})
}

func TestBlockHammingWeights(t *testing.T) {
	data := []byte{0xFF, 0xFF, 0x00, 0x00, 0xF0} // trailing partial dropped
	w := BlockHammingWeights(data, 2)
	if len(w) != 2 || w[0] != 16 || w[1] != 0 {
		t.Errorf("weights = %v", w)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram([]float64{0, 0.5, 1.0, 2.5, -1}, 0, 2, 4)
	if h.Total != 5 {
		t.Fatalf("total = %d", h.Total)
	}
	// -1 clamps into bin 0 next to 0.0; 0.5→bin1, 1.0→bin2, 2.5 clamps into bin 3.
	if h.Counts[0] != 2 || h.Counts[1] != 1 || h.Counts[2] != 1 || h.Counts[3] != 1 {
		t.Errorf("counts = %v", h.Counts)
	}
	d := h.Density()
	var sum float64
	for _, v := range d {
		sum += v
	}
	if !approxEqual(sum, 1, 1e-12) {
		t.Errorf("density sums to %v", sum)
	}
	centers := h.BinCenters()
	if !approxEqual(centers[0], 0.25, 1e-12) || !approxEqual(centers[3], 1.75, 1e-12) {
		t.Errorf("centers = %v", centers)
	}
}

func TestMeanBias(t *testing.T) {
	if b := MeanBias([]byte{0xF0, 0x0F}); !approxEqual(b, 0.5, 1e-12) {
		t.Errorf("bias = %v", b)
	}
	if b := MeanBias(nil); b != 0 {
		t.Errorf("bias(nil) = %v", b)
	}
}

func TestRepetitionErrorRatePaperExample(t *testing.T) {
	// §5.2: "10% error becomes 2.8% when three copies are encoded."
	got := RepetitionErrorRate(0.9, 3)
	if !approxEqual(got, 0.028, 5e-4) {
		t.Errorf("repetition(0.9, 3) = %v, want ≈0.028", got)
	}
}

func TestRepetitionErrorRateMonotoneInCopies(t *testing.T) {
	prev := 1.0
	for n := 1; n <= 19; n += 2 {
		e := RepetitionErrorRate(0.935, n) // MSP432's 6.5% channel
		if e > prev+1e-15 {
			t.Fatalf("error increased at n=%d: %v > %v", n, e, prev)
		}
		prev = e
	}
	// 13 copies should drive the 6.5% channel essentially to zero (§5.2).
	if e := RepetitionErrorRate(0.935, 13); e > 1e-3 {
		t.Errorf("13 copies leaves error %v", e)
	}
}

func TestRepetitionErrorProperty(t *testing.T) {
	f := func(pRaw uint16, nRaw uint8) bool {
		p := 0.5 + float64(pRaw)/(1<<17) // p in [0.5, 1)
		n := int(nRaw%10)*2 + 1          // odd 1..19
		e := RepetitionErrorRate(p, n)
		return e >= 0 && e <= 1-p+1e-12 || n == 1 && approxEqual(e, 1-p, 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRepetitionPanics(t *testing.T) {
	for _, n := range []int{0, 2, -3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for n=%d", n)
				}
			}()
			RepetitionErrorRate(0.9, n)
		}()
	}
}

func TestHammingResidual74(t *testing.T) {
	if HammingResidual74(0) != 0 || HammingResidual74(1) != 1 {
		t.Error("edge cases wrong")
	}
	// Must strictly improve on the raw channel for small p.
	for _, p := range []float64{0.001, 0.005, 0.01, 0.03} {
		if r := HammingResidual74(p); r >= p {
			t.Errorf("Hamming(7,4) did not improve at p=%v: %v", p, r)
		}
	}
	// And make things worse above its useful regime (heavy error).
	if r := HammingResidual74(0.4); r < 0.3 {
		t.Errorf("unexpectedly good at p=0.4: %v", r)
	}
}
