package sram

import (
	"bytes"
	"math"
	"testing"

	"invisiblebits/internal/analog"
	"invisiblebits/internal/rng"
	"invisiblebits/internal/stats"
)

// testSpec returns a small (1 KB) array for fast tests; statistics on
// 8192 cells give sub-percent standard errors.
func testSpec(seed uint64) Spec {
	s := DefaultSpec()
	s.Rows, s.Cols = 64, 128
	s.Seed = seed
	return s
}

func mustNew(t *testing.T, spec Spec) *Array {
	t.Helper()
	a, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// writeStress writes pattern and stresses it: the encoding pipeline's
// two array steps.
func writeStress(a *Array, pattern []byte, c analog.Conditions, hours float64) error {
	if err := a.Write(pattern); err != nil {
		return err
	}
	return a.Stress(c, hours)
}

func invert(p []byte) []byte {
	out := make([]byte, len(p))
	for i, b := range p {
		out[i] = ^b
	}
	return out
}

func TestSpecValidation(t *testing.T) {
	bad := []func(*Spec){
		func(s *Spec) { s.Rows = 0 },
		func(s *Spec) { s.Cols = -1 },
		func(s *Spec) { s.Rows, s.Cols = 3, 3 }, // 9 bits, not byte aligned
		func(s *Spec) { s.MismatchSigmaMv = 0 },
		func(s *Spec) { s.NoiseSigmaMv = -1 },
		func(s *Spec) { s.Aging.A0MvPerHourN = 0 },
	}
	for i, mutate := range bad {
		s := testSpec(1)
		mutate(&s)
		if _, err := New(s); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

func TestPowerOnFingerprintDeterministicPerSeed(t *testing.T) {
	a := mustNew(t, testSpec(7))
	b := mustNew(t, testSpec(7))
	ma, err := a.CaptureMajority(5, 25)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := b.CaptureMajority(5, 25)
	if err != nil {
		t.Fatal(err)
	}
	if ber := stats.BitErrorRate(ma, mb); ber > 0.01 {
		t.Fatalf("same-seed devices differ by %v", ber)
	}
	c := mustNew(t, testSpec(8))
	mc, err := c.CaptureMajority(5, 25)
	if err != nil {
		t.Fatal(err)
	}
	if ber := stats.BitErrorRate(ma, mc); ber < 0.4 || ber > 0.6 {
		t.Fatalf("different-seed devices differ by %v, want ~0.5", ber)
	}
}

func TestPowerOnBalancedAndHighEntropy(t *testing.T) {
	a := mustNew(t, testSpec(3))
	snap, err := a.PowerOn(25)
	if err != nil {
		t.Fatal(err)
	}
	bias := stats.MeanBias(snap)
	if bias < 0.47 || bias > 0.53 {
		t.Fatalf("clean power-on bias = %v, want ~0.5", bias)
	}
	if h := stats.ByteEntropy(snap); h < 7.5 {
		t.Fatalf("clean power-on entropy = %v bits, want near 8", h)
	}
}

func TestCleanMoranISlightlyPositive(t *testing.T) {
	// Table 2: unstressed SRAMs show Moran's I ≈ 0.009–0.011 (the smooth
	// across-die component). Require small and positive.
	a := mustNew(t, testSpec(11))
	snap, err := a.PowerOn(25)
	if err != nil {
		t.Fatal(err)
	}
	bits := make([]byte, a.Cells())
	for i := range bits {
		if snap[i/8]&(1<<(i%8)) != 0 {
			bits[i] = 1
		}
	}
	res, err := stats.MoranIBits(bits, a.Rows(), a.Cols())
	if err != nil {
		t.Fatal(err)
	}
	// On a small 8K-cell test array the smooth component is sampled
	// coarsely; require |I| small (the full-size arrays of the tab2
	// experiment check the positive ~0.01 value).
	if res.I < -0.01 || res.I > 0.05 {
		t.Fatalf("clean Moran's I = %v, want near zero / small positive", res.I)
	}
}

func TestPowerLifecycleErrors(t *testing.T) {
	a := mustNew(t, testSpec(1))
	if _, err := a.Read(); err != ErrUnpowered {
		t.Errorf("Read unpowered: %v", err)
	}
	if err := a.Write(make([]byte, a.Bytes())); err != ErrUnpowered {
		t.Errorf("Write unpowered: %v", err)
	}
	if err := a.Stress(analog.Conditions{VoltageV: 3.3, TempC: 85}, 1); err != ErrUnpowered {
		t.Errorf("Stress unpowered: %v", err)
	}
	if _, err := a.PowerOn(25); err != nil {
		t.Fatal(err)
	}
	if _, err := a.PowerOn(25); err != ErrPowered {
		t.Errorf("double PowerOn: %v", err)
	}
	if err := a.Shelve(1); err == nil {
		t.Error("Shelve while powered should fail")
	}
	if err := a.Write(make([]byte, 3)); err == nil {
		t.Error("short Write should fail")
	}
	if err := a.WriteAt(a.Bytes()-1, []byte{1, 2}); err == nil {
		t.Error("out-of-bounds WriteAt should fail")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	a := mustNew(t, testSpec(2))
	if _, err := a.PowerOn(25); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, a.Bytes())
	rng.NewSource(9).Bytes(payload)
	if err := a.Write(payload); err != nil {
		t.Fatal(err)
	}
	got, err := a.Read()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("digital read-back mismatch")
	}
	// WriteAt patches a window.
	if err := a.WriteAt(4, []byte{0xAA, 0xBB}); err != nil {
		t.Fatal(err)
	}
	got, _ = a.Read()
	if got[4] != 0xAA || got[5] != 0xBB || got[3] != payload[3] {
		t.Fatal("WriteAt wrong window")
	}
}

func TestRemanence(t *testing.T) {
	a := mustNew(t, testSpec(4))
	if _, err := a.PowerOn(25); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, a.Bytes())
	rng.NewSource(5).Bytes(payload)
	if err := a.Write(payload); err != nil {
		t.Fatal(err)
	}
	// Fast cycle without discharge: contents survive.
	a.PowerOff(false)
	snap, err := a.PowerOn(25)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap, payload) {
		t.Fatal("remanence did not preserve contents")
	}
	// Discharged cycle: contents replaced by a fresh power-on state.
	a.PowerOff(true)
	snap, err = a.PowerOn(25)
	if err != nil {
		t.Fatal(err)
	}
	if ber := stats.BitErrorRate(snap, payload); ber < 0.3 {
		t.Fatalf("discharged power cycle retained payload (ber=%v)", ber)
	}
}

func TestDataDirectedAgingDirections(t *testing.T) {
	// Fig. 3b/3c: stressing all-0s raises the fraction of 1s at power-on;
	// all-1s raises the 0s.
	cond := analog.Conditions{VoltageV: 3.3, TempC: 85}
	for _, tc := range []struct {
		fill     byte
		wantOnes bool
	}{
		{0x00, true},
		{0xFF, false},
	} {
		a := mustNew(t, testSpec(21))
		if _, err := a.PowerOn(25); err != nil {
			t.Fatal(err)
		}
		if err := a.Fill(tc.fill); err != nil {
			t.Fatal(err)
		}
		if err := a.Stress(cond, 4); err != nil {
			t.Fatal(err)
		}
		snap, err := a.PowerCycle(25)
		if err != nil {
			t.Fatal(err)
		}
		bias := stats.MeanBias(snap)
		if tc.wantOnes && bias < 0.7 {
			t.Errorf("all-0 stress: bias %v, want >>0.5", bias)
		}
		if !tc.wantOnes && bias > 0.3 {
			t.Errorf("all-1 stress: bias %v, want <<0.5", bias)
		}
	}
}

// encodeAndMeasure stresses a payload in and returns the decode error
// against the expected (inverted) power-on state.
func encodeAndMeasure(t *testing.T, a *Array, payload []byte, c analog.Conditions, hours float64) float64 {
	t.Helper()
	if !a.Powered() {
		if _, err := a.PowerOn(25); err != nil {
			t.Fatal(err)
		}
	}
	if err := writeStress(a, payload, c, hours); err != nil {
		t.Fatal(err)
	}
	maj, err := a.CaptureMajority(5, 25)
	if err != nil {
		t.Fatal(err)
	}
	return stats.BitErrorRate(invert(maj), payload)
}

func TestEncodingErrorCalibration(t *testing.T) {
	// The MSP432 anchor: ~6.5% error after 10 h at 3.3 V/85 °C (§5.2),
	// ~30-35% after 2 h (Fig. 6).
	cond := analog.Conditions{VoltageV: 3.3, TempC: 85}

	a := mustNew(t, testSpec(31))
	payload := make([]byte, a.Bytes())
	rng.NewSource(77).Bytes(payload)
	err10 := encodeAndMeasure(t, a, payload, cond, 10)
	if err10 < 0.045 || err10 > 0.085 {
		t.Errorf("10h encode error = %v, want ≈0.065", err10)
	}

	b := mustNew(t, testSpec(32))
	err2 := encodeAndMeasure(t, b, payload, cond, 2)
	if err2 < 0.25 || err2 > 0.40 {
		t.Errorf("2h encode error = %v, want ≈0.30–0.35", err2)
	}
	if err2 <= err10 {
		t.Errorf("error not decreasing with stress time: %v vs %v", err2, err10)
	}
}

func TestStressComposition(t *testing.T) {
	// Three two-hour cycles with the same held data ≈ one six-hour stress
	// (the paper encodes "at three two-hour-long stress cycles", §5.2).
	cond := analog.Conditions{VoltageV: 3.3, TempC: 85}
	payload := make([]byte, testSpec(0).Rows*testSpec(0).Cols/8)
	rng.NewSource(13).Bytes(payload)

	a := mustNew(t, testSpec(41))
	if _, err := a.PowerOn(25); err != nil {
		t.Fatal(err)
	}
	if err := a.Write(payload); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := a.Stress(cond, 2); err != nil {
			t.Fatal(err)
		}
	}
	majA, _ := a.CaptureMajority(5, 25)

	b := mustNew(t, testSpec(41))
	if _, err := b.PowerOn(25); err != nil {
		t.Fatal(err)
	}
	if err := writeStress(b, payload, cond, 6); err != nil {
		t.Fatal(err)
	}
	majB, _ := b.CaptureMajority(5, 25)

	if ber := stats.BitErrorRate(majA, majB); ber > 0.01 {
		t.Errorf("staged vs one-shot stress differ by %v", ber)
	}
}

func TestMajorityVotingFiltersNoise(t *testing.T) {
	cond := analog.Conditions{VoltageV: 3.3, TempC: 85}
	a := mustNew(t, testSpec(51))
	payload := make([]byte, a.Bytes())
	rng.NewSource(3).Bytes(payload)
	if _, err := a.PowerOn(25); err != nil {
		t.Fatal(err)
	}
	if err := writeStress(a, payload, cond, 10); err != nil {
		t.Fatal(err)
	}
	single, err := a.PowerCycle(25)
	if err != nil {
		t.Fatal(err)
	}
	maj, err := a.CaptureMajority(5, 25)
	if err != nil {
		t.Fatal(err)
	}
	errSingle := stats.BitErrorRate(invert(single), payload)
	errMaj := stats.BitErrorRate(invert(maj), payload)
	// Majority voting removes the sampling-noise component; encoding error
	// dominates both, so allow a small statistical tolerance.
	if errMaj > errSingle+0.002 {
		t.Errorf("majority (%v) worse than single capture (%v)", errMaj, errSingle)
	}
	// Repeated majority reads are stable (copy tolerance, §1).
	maj2, err := a.CaptureMajority(5, 25)
	if err != nil {
		t.Fatal(err)
	}
	if ber := stats.BitErrorRate(maj, maj2); ber > 0.005 {
		t.Errorf("majority captures unstable: %v", ber)
	}
}

func TestCaptureMajorityRejectsEvenCounts(t *testing.T) {
	a := mustNew(t, testSpec(1))
	if _, err := a.CaptureMajority(4, 25); err == nil {
		t.Error("even capture count accepted")
	}
	if _, err := a.CaptureMajority(0, 25); err == nil {
		t.Error("zero capture count accepted")
	}
}

func TestNaturalRecoveryIncreasesError(t *testing.T) {
	// §5.1.3: error grows ≈1.4× after a shelved week, ≈1.6× after a month.
	cond := analog.Conditions{VoltageV: 3.3, TempC: 85}
	a := mustNew(t, testSpec(61))
	payload := make([]byte, a.Bytes())
	rng.NewSource(8).Bytes(payload)
	base := encodeAndMeasure(t, a, payload, cond, 10)

	a.PowerOff(true)
	if err := a.Shelve(7 * 24); err != nil {
		t.Fatal(err)
	}
	majWeek, err := a.CaptureMajority(5, 25)
	if err != nil {
		t.Fatal(err)
	}
	week := stats.BitErrorRate(invert(majWeek), payload)

	a.PowerOff(true)
	if err := a.Shelve(21 * 24); err != nil { // total 4 weeks
		t.Fatal(err)
	}
	majMonth, err := a.CaptureMajority(5, 25)
	if err != nil {
		t.Fatal(err)
	}
	month := stats.BitErrorRate(invert(majMonth), payload)

	fWeek, fMonth := week/base, month/base
	if fWeek < 1.15 || fWeek > 1.65 {
		t.Errorf("1-week recovery factor = %v, want ≈1.4", fWeek)
	}
	if fMonth < 1.35 || fMonth > 1.95 {
		t.Errorf("4-week recovery factor = %v, want ≈1.6", fMonth)
	}
	if fMonth <= fWeek {
		t.Errorf("recovery factors not monotone: %v then %v", fWeek, fMonth)
	}
	if month > 0.12 {
		t.Errorf("month error %v should stay within ~10%% (§5.1.3)", month)
	}
}

func TestNormalOperationGentlerThanShelf(t *testing.T) {
	// §5.1.4: a week of pseudo-random writes at nominal conditions grows
	// error ≈1.2×, less than the ≈1.4× of pure shelving.
	cond := analog.Conditions{VoltageV: 3.3, TempC: 85}
	nominal := analog.Conditions{VoltageV: 1.2, TempC: 25}

	a := mustNew(t, testSpec(71))
	payload := make([]byte, a.Bytes())
	rng.NewSource(17).Bytes(payload)
	base := encodeAndMeasure(t, a, payload, cond, 10)

	w := rng.NewWorkloadWriter(0xfeed, 0)
	if err := a.OperateRandom(w, nominal, 7*24, 4); err != nil {
		t.Fatal(err)
	}
	maj, err := a.CaptureMajority(5, 25)
	if err != nil {
		t.Fatal(err)
	}
	op := stats.BitErrorRate(invert(maj), payload)

	b := mustNew(t, testSpec(71))
	payload2 := make([]byte, b.Bytes())
	rng.NewSource(17).Bytes(payload2)
	base2 := encodeAndMeasure(t, b, payload2, cond, 10)
	b.PowerOff(true)
	if err := b.Shelve(7 * 24); err != nil {
		t.Fatal(err)
	}
	majShelf, err := b.CaptureMajority(5, 25)
	if err != nil {
		t.Fatal(err)
	}
	shelf := stats.BitErrorRate(invert(majShelf), payload2)

	fOp, fShelf := op/base, shelf/base2
	if fOp < 1.0 || fOp > 1.45 {
		t.Errorf("operation factor = %v, want ≈1.2", fOp)
	}
	if fOp >= fShelf {
		t.Errorf("operation (%v) should degrade less than shelf (%v)", fOp, fShelf)
	}
}

func TestBiasMapUShaped(t *testing.T) {
	// Fig. 3a: most unaged cells are strongly biased (bias ≈ 0 or 1), few
	// are metastable.
	a := mustNew(t, testSpec(81))
	bm, err := a.BiasMap(20, 25)
	if err != nil {
		t.Fatal(err)
	}
	extreme, middle := 0, 0
	for _, b := range bm {
		switch {
		case b <= 0.05 || b >= 0.95:
			extreme++
		case b >= 0.3 && b <= 0.7:
			middle++
		}
	}
	if frac := float64(extreme) / float64(len(bm)); frac < 0.85 {
		t.Errorf("only %v of cells strongly biased, want >0.85", frac)
	}
	if frac := float64(middle) / float64(len(bm)); frac > 0.05 {
		t.Errorf("%v of cells metastable, want <0.05", frac)
	}
}

func TestNoiseSigmaScalesWithTemperature(t *testing.T) {
	// Hotter captures are noisier: count flaky bits across capture pairs.
	flaky := func(tempC float64) int {
		a := mustNew(t, testSpec(91))
		s1, err := a.PowerOn(tempC)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := a.PowerCycle(tempC)
		if err != nil {
			t.Fatal(err)
		}
		return stats.HammingDistance(s1, s2)
	}
	cold := flaky(0)
	hot := flaky(185)
	if hot <= cold {
		t.Errorf("flaky bits: cold=%d hot=%d, want hot > cold", cold, hot)
	}
}

func TestErrorFloorFromExtremeCells(t *testing.T) {
	// §5.1.1: some cells are so asymmetric that no realistic stress flips
	// them — the error floor. Verify a very long stress still leaves a
	// small residual error but far below the 10h level.
	cond := analog.Conditions{VoltageV: 3.3, TempC: 85}
	a := mustNew(t, testSpec(95))
	payload := make([]byte, a.Bytes())
	rng.NewSource(4).Bytes(payload)
	e100 := encodeAndMeasure(t, a, payload, cond, 100)
	if e100 <= 0 {
		t.Error("expected a nonzero error floor")
	}
	if e100 > 0.03 {
		t.Errorf("100h error = %v, want < 0.03", e100)
	}
}

func TestShelveNoOpForNonPositive(t *testing.T) {
	a := mustNew(t, testSpec(1))
	if err := a.Shelve(0); err != nil {
		t.Fatal(err)
	}
	if err := a.Shelve(-3); err != nil {
		t.Fatal(err)
	}
}

func TestBiasAccessorConsistent(t *testing.T) {
	a := mustNew(t, testSpec(1))
	snap, err := a.PowerOn(-273.0) // ~zero thermal noise
	if err != nil {
		t.Fatal(err)
	}
	disagree := 0
	for i := 0; i < a.Cells(); i++ {
		got := snap[i/8]&(1<<(i%8)) != 0
		want := a.Bias(i) > 0
		if got != want && math.Abs(a.Bias(i)) > 0.5 {
			disagree++
		}
	}
	if disagree > 0 {
		t.Errorf("%d cells disagree with Bias() at near-zero noise", disagree)
	}
}

func BenchmarkPowerOn64KB(b *testing.B) {
	s := DefaultSpec()
	a, err := New(s)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.PowerCycle(25); err != nil && i > 0 {
			b.Fatal(err)
		}
	}
}

func BenchmarkStress64KB(b *testing.B) {
	s := DefaultSpec()
	a, err := New(s)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := a.PowerOn(25); err != nil {
		b.Fatal(err)
	}
	cond := analog.Conditions{VoltageV: 3.3, TempC: 85}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Stress(cond, 1); err != nil {
			b.Fatal(err)
		}
	}
}
