package ecc

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"invisiblebits/internal/rng"
	"invisiblebits/internal/stats"
)

// --- Hamming(15,11) -----------------------------------------------------------

func TestHamming1511RoundTrip(t *testing.T) {
	h := Hamming1511{}
	for _, n := range []int{1, 2, 11, 64, 333} {
		msg := randMsg(n, uint64(n)+100)
		enc, err := h.Encode(msg)
		if err != nil {
			t.Fatal(err)
		}
		if len(enc) != h.EncodedLen(n) {
			t.Fatalf("n=%d: len %d vs EncodedLen %d", n, len(enc), h.EncodedLen(n))
		}
		dec, err := h.Decode(enc, n)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dec, msg) {
			t.Fatalf("n=%d: round trip failed", n)
		}
	}
}

func TestHamming1511CorrectsSingleErrorPerCodeword(t *testing.T) {
	h := Hamming1511{}
	msg := randMsg(33, 5) // 264 bits = exactly 24 codewords
	enc, err := h.Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	words := (len(msg)*8 + 10) / 11
	for w := 0; w < words; w++ {
		for k := 0; k < 15; k++ {
			corrupted := make([]byte, len(enc))
			copy(corrupted, enc)
			bit := w*15 + k
			corrupted[bit/8] ^= 1 << (bit % 8)
			dec, err := h.Decode(corrupted, len(msg))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(dec, msg) {
				t.Fatalf("codeword %d bit %d not corrected", w, k)
			}
		}
	}
}

func TestHamming1511BetterRateThan74(t *testing.T) {
	if (Hamming1511{}).Rate() <= (Hamming74{}).Rate() {
		t.Fatal("(15,11) should out-rate (7,4)")
	}
	// And pay for it with a worse residual at the same channel error.
	const p = 0.01
	msg := randMsg(1<<13, 9)
	res := map[string]float64{}
	for _, c := range []Codec{Hamming74{}, Hamming1511{}} {
		enc, err := c.Encode(msg)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := c.Decode(flipBits(enc, p, 3), len(msg))
		if err != nil {
			t.Fatal(err)
		}
		res[c.Name()] = stats.BitErrorRate(dec, msg)
	}
	if res["hamming(15,11)"] <= res["hamming(7,4)"] {
		t.Errorf("expected (15,11) residual above (7,4): %v", res)
	}
	// Both still improve on the raw channel.
	for name, r := range res {
		if r >= p {
			t.Errorf("%s did not improve on channel: %v", name, r)
		}
	}
}

func TestHamming1511WrongLength(t *testing.T) {
	h := Hamming1511{}
	enc, err := h.Encode(randMsg(8, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Decode(enc[:len(enc)-1], 8); err == nil {
		t.Error("truncated payload accepted")
	}
}

// --- SECDED(8,4) ----------------------------------------------------------------

func TestSecdedRoundTrip(t *testing.T) {
	s := Secded84{}
	msg := randMsg(64, 2)
	enc, err := s.Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) != 128 {
		t.Fatalf("encoded length = %d", len(enc))
	}
	dec, rep, err := s.DecodeWithReport(enc, len(msg))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec, msg) || rep.Corrected != 0 || rep.Detected != 0 {
		t.Fatalf("clean decode: %v %+v", bytes.Equal(dec, msg), rep)
	}
}

func TestSecdedCorrectsSinglesEverywhere(t *testing.T) {
	s := Secded84{}
	msg := []byte{0xA5}
	enc, err := s.Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	for bit := 0; bit < 16; bit++ {
		corrupted := make([]byte, len(enc))
		copy(corrupted, enc)
		corrupted[bit/8] ^= 1 << (bit % 8)
		dec, rep, err := s.DecodeWithReport(corrupted, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dec, msg) {
			t.Fatalf("bit %d not corrected", bit)
		}
		if rep.Corrected != 1 {
			t.Fatalf("bit %d: report %+v", bit, rep)
		}
	}
}

func TestSecdedDetectsDoublesWithoutMiscorrecting(t *testing.T) {
	s := Secded84{}
	msg := []byte{0x3C}
	enc, err := s.Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	detected := 0
	for a := 0; a < 8; a++ {
		for b := a + 1; b < 8; b++ {
			corrupted := make([]byte, len(enc))
			copy(corrupted, enc)
			corrupted[0] ^= (1 << a) | (1 << b)
			_, rep, err := s.DecodeWithReport(corrupted, 1)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Detected == 1 && rep.Corrected == 0 {
				detected++
			} else if rep.Corrected > 0 {
				t.Fatalf("double error (%d,%d) was 'corrected' — SECDED must detect, not guess", a, b)
			}
		}
	}
	if detected != 28 {
		t.Fatalf("detected %d/28 double errors", detected)
	}
}

func TestSecdedOnChannelAvoidsMiscorrection(t *testing.T) {
	// On the same noisy channel, SECDED's residual should not exceed
	// Hamming(7,4)'s (it never miscorrects doubles).
	const p = 0.03
	msg := randMsg(1<<13, 11)
	ham := Hamming74{}
	sec := Secded84{}
	encH, err := ham.Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	decH, err := ham.Decode(flipBits(encH, p, 7), len(msg))
	if err != nil {
		t.Fatal(err)
	}
	encS, err := sec.Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	decS, err := sec.Decode(flipBits(encS, p, 8), len(msg))
	if err != nil {
		t.Fatal(err)
	}
	if eS, eH := stats.BitErrorRate(decS, msg), stats.BitErrorRate(decH, msg); eS > eH*1.2 {
		t.Errorf("SECDED residual %v worse than Hamming(7,4) %v", eS, eH)
	}
}

func TestSecdedReportString(t *testing.T) {
	r := DecodeReport{Corrected: 2, Detected: 1}
	if r.String() != "corrected 2, detected-uncorrectable 1" {
		t.Errorf("String = %q", r.String())
	}
}

// --- soft decoding --------------------------------------------------------------

func TestSoftEqualsHardOnBinaryConfidence(t *testing.T) {
	rep, err := NewRepetition(5)
	if err != nil {
		t.Fatal(err)
	}
	msg := randMsg(256, 21)
	enc, err := rep.Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	noisy := flipBits(enc, 0.08, 9)
	hard, err := rep.Decode(noisy, len(msg))
	if err != nil {
		t.Fatal(err)
	}
	soft, err := rep.DecodeSoft(hardConf(noisy), len(msg))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(hard, soft) {
		t.Fatal("soft decode with binary confidences must equal hard majority")
	}
}

func TestSoftBeatsHardWithGradedConfidence(t *testing.T) {
	// Synthetic channel: each coded bit's confidence is a noisy
	// observation of the true bit (Gaussian around 0/1). Hard decoding
	// thresholds each copy first (losing magnitude); soft combining sums
	// raw confidences and must do strictly better over a large message.
	rep, err := NewRepetition(3)
	if err != nil {
		t.Fatal(err)
	}
	msg := randMsg(1<<12, 33)
	enc, err := rep.Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.NewSource(44)
	conf := make([]float64, len(enc)*8)
	hard := make([]byte, len(enc))
	for i := range conf {
		truth := float64(getBit(enc, i))
		c := truth + src.NormScaled(0, 0.45)
		if c < 0 {
			c = 0
		}
		if c > 1 {
			c = 1
		}
		conf[i] = c
		if c > 0.5 {
			hard[i/8] |= 1 << (i % 8)
		}
	}
	decHard, err := rep.Decode(hard, len(msg))
	if err != nil {
		t.Fatal(err)
	}
	decSoft, err := rep.DecodeSoft(conf, len(msg))
	if err != nil {
		t.Fatal(err)
	}
	eHard := stats.BitErrorRate(decHard, msg)
	eSoft := stats.BitErrorRate(decSoft, msg)
	if eSoft >= eHard {
		t.Errorf("soft (%v) not better than hard (%v) on graded channel", eSoft, eHard)
	}
}

func TestSoftCompositeAndIdentity(t *testing.T) {
	rep, err := NewRepetition(3)
	if err != nil {
		t.Fatal(err)
	}
	comp := Composite{Outer: Hamming74{}, Inner: rep}
	msg := randMsg(128, 3)
	enc, err := comp.Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := comp.DecodeSoft(hardConf(enc), len(msg))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec, msg) {
		t.Fatal("composite soft round trip failed")
	}
	// Composite with a non-soft inner must refuse.
	bad := Composite{Outer: rep, Inner: Hamming74{}}
	if _, err := bad.DecodeSoft(hardConf(enc), len(msg)); err == nil {
		t.Error("non-soft inner accepted")
	}
	// Identity soft.
	id := Identity{}
	got, err := id.DecodeSoft(hardConf(msg), len(msg))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("identity soft failed")
	}
	if _, err := id.DecodeSoft(make([]float64, 7), 1); err == nil {
		t.Error("bad conf length accepted")
	}
}

func TestSoftLengthValidation(t *testing.T) {
	rep, err := NewRepetition(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rep.DecodeSoft(make([]float64, 10), 4); err == nil {
		t.Error("bad conf length accepted")
	}
}

// --- planner ----------------------------------------------------------------------

func TestRecommendOnPaperChannel(t *testing.T) {
	// The §5.2 running example: 6.5% channel, <0.3% target, 64 KB SRAM.
	plans, err := Recommend(0.065, 0.003, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) == 0 {
		t.Fatal("no plans for the paper's own operating point")
	}
	best := plans[0]
	// 5-copy repetition meets <0.3% (the paper's own choice); anything the
	// planner prefers must have rate >= 0.2.
	if best.Rate < 0.2 {
		t.Errorf("best plan %v has worse rate than the paper's rep(5)", best)
	}
	for _, p := range plans {
		if p.PredictedError > 0.003 {
			t.Errorf("plan %v exceeds target", p)
		}
		if p.Codec != nil && p.CapacityBytes != maxMessageBytesFor(p.Codec, 64<<10) {
			t.Errorf("plan %v capacity inconsistent", p)
		}
	}
	// Sorted by rate descending.
	for i := 1; i < len(plans); i++ {
		if plans[i].Rate > plans[i-1].Rate {
			t.Fatal("plans not sorted by rate")
		}
	}
}

func TestRecommendLowErrorChannelPrefersHamming(t *testing.T) {
	// At 0.5% channel error and 0.1% target, a pure Hamming code should
	// beat repetition on rate.
	best, err := Best(0.005, 0.001, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if best.Rate < 0.5 {
		t.Errorf("best plan %v should be a high-rate Hamming code", best)
	}
}

func TestRecommendRawChannelWhenTargetLoose(t *testing.T) {
	best, err := Best(0.01, 0.05, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if best.Codec != nil {
		t.Errorf("loose target should pick the raw channel, got %v", best)
	}
	if best.CapacityBytes != 1024 {
		t.Errorf("raw capacity = %d", best.CapacityBytes)
	}
}

func TestRecommendValidation(t *testing.T) {
	if _, err := Recommend(0.6, 0.01, 1024); err == nil {
		t.Error("channel error 0.6 accepted")
	}
	if _, err := Recommend(0.1, 0, 1024); err == nil {
		t.Error("zero target accepted")
	}
	if _, err := Best(0.4, 1e-12, 1024); err == nil {
		t.Error("impossible target produced a plan")
	}
}

func TestHammingResidualGeneric(t *testing.T) {
	if hammingResidual(0, 15) != 0 || hammingResidual(1, 15) != 1 {
		t.Error("edge cases wrong")
	}
	// Longer code: worse residual at the same p.
	for _, p := range []float64{0.005, 0.02} {
		if hammingResidual(p, 15) <= stats.HammingResidual74(p) {
			t.Errorf("p=%v: (15,11) residual should exceed (7,4)", p)
		}
	}
}

func TestPlanString(t *testing.T) {
	p := Plan{PredictedError: 0.001, Rate: 1, CapacityBytes: 64}
	if p.String() == "" || math.IsNaN(p.PredictedError) {
		t.Error("bad plan string")
	}
}

func TestGenericHammingProperty(t *testing.T) {
	// decode(encode(x)) == x for arbitrary messages under (15,11).
	h := Hamming1511{}
	f := func(data []byte) bool {
		if len(data) == 0 {
			return true
		}
		if len(data) > 512 {
			data = data[:512]
		}
		enc, err := h.Encode(data)
		if err != nil {
			return false
		}
		dec, err := h.Decode(enc, len(data))
		if err != nil {
			return false
		}
		return bytes.Equal(dec, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// hardConf converts a hard payload into binary confidences (0 or 1).
func hardConf(payload []byte) []float64 {
	conf := make([]float64, len(payload)*8)
	for i := range conf {
		if payload[i/8]&(1<<(i%8)) != 0 {
			conf[i] = 1
		}
	}
	return conf
}
