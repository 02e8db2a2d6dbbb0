package sram

import (
	"testing"

	"invisiblebits/internal/analog"
	"invisiblebits/internal/rng"
	"invisiblebits/internal/stats"
)

// TestBakingAttackBoundedByPermanentDamage models an adversary who ovens
// a suspect (unpowered) device at 85 °C to erase a potential message.
// Hot storage accelerates recovery (~7× at 0.3 eV), so a week in the oven
// costs roughly what two months on the shelf would — but the permanent
// component survives, so a repetition-coded message still decodes.
func TestBakingAttackBoundedByPermanentDamage(t *testing.T) {
	cond := analog.Conditions{VoltageV: 3.3, TempC: 85}

	encodeOn := func(seed uint64) (*Array, []byte) {
		a := mustNew(t, testSpec(seed))
		if _, err := a.PowerOn(25); err != nil {
			t.Fatal(err)
		}
		payload := make([]byte, a.Bytes())
		rng.NewSource(0xBA4E).Bytes(payload)
		if err := writeStress(a, payload, cond, 10); err != nil {
			t.Fatal(err)
		}
		a.PowerOff(true)
		return a, payload
	}
	measure := func(a *Array, payload []byte) float64 {
		maj, err := a.CaptureMajority(5, 25)
		if err != nil {
			t.Fatal(err)
		}
		a.PowerOff(true)
		return stats.BitErrorRate(invert(maj), payload)
	}

	baked, payload := encodeOn(0xB1)
	base := measure(baked, payload)
	if err := baked.ShelveAt(7*24, 85); err != nil {
		t.Fatal(err)
	}
	bakedErr := measure(baked, payload)

	shelf, payload2 := encodeOn(0xB1)
	if err := shelf.Shelve(7 * 24); err != nil {
		t.Fatal(err)
	}
	shelfErr := measure(shelf, payload2)

	// Baking accelerates damage relative to room-temperature shelving...
	if bakedErr <= shelfErr {
		t.Errorf("baking (%v) should out-damage shelving (%v)", bakedErr, shelfErr)
	}
	// ...but is bounded: even a fully recovered device keeps the permanent
	// 72% of the encoding shift, which leaves the error under ~2.1× base —
	// well within a 5-copy repetition code's budget.
	if factor := bakedErr / base; factor > 2.3 {
		t.Errorf("baking factor = %v, permanent damage should bound it near 2x", factor)
	}
	// A post-bake channel of ~12% still decodes through the paper's
	// layered code: repetition(5) brings it under 2%, and the Hamming
	// outer layer mops that up.
	rep5 := stats.RepetitionErrorRate(1-bakedErr, 5)
	if rep5 > 0.02 {
		t.Errorf("5-copy repetition after baking leaves %v error", rep5)
	}
	if final := stats.HammingResidual74(rep5); final > 0.002 {
		t.Errorf("rep5+hamming(7,4) after baking leaves %v error", final)
	}
}

func TestShelveAtReducesToShelveAtReference(t *testing.T) {
	cond := analog.Conditions{VoltageV: 3.3, TempC: 85}
	a := mustNew(t, testSpec(0xC1))
	b := mustNew(t, testSpec(0xC1))
	for _, arr := range []*Array{a, b} {
		if _, err := arr.PowerOn(25); err != nil {
			t.Fatal(err)
		}
		if err := arr.Fill(0xFF); err != nil {
			t.Fatal(err)
		}
		if err := arr.Stress(cond, 10); err != nil {
			t.Fatal(err)
		}
		arr.PowerOff(true)
	}
	if err := a.Shelve(100); err != nil {
		t.Fatal(err)
	}
	if err := b.ShelveAt(100, 25); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.Cells(); i += 131 {
		if a.Bias(i) != b.Bias(i) {
			t.Fatalf("cell %d: Shelve and ShelveAt(25) diverge", i)
		}
	}
}

func TestRecoveryAccelArrhenius(t *testing.T) {
	p := testSpec(1).Aging
	cold := p.RecoveryAccel(0)
	ref := p.RecoveryAccel(25)
	hot := p.RecoveryAccel(85)
	if !(cold < ref && ref < hot) {
		t.Fatalf("recovery acceleration not monotone: %v %v %v", cold, ref, hot)
	}
	if ref < 0.999 || ref > 1.001 {
		t.Errorf("reference acceleration = %v, want 1", ref)
	}
	// At 0.3 eV, 25→85 °C accelerates recovery by roughly 5–10×.
	if hot < 4 || hot > 12 {
		t.Errorf("85°C acceleration = %v, want ~7x", hot)
	}
	// Disabled activation energy: flat.
	p.RecActivationEV = 0
	if p.RecoveryAccel(85) != 1 {
		t.Error("zero activation energy should disable acceleration")
	}
}
