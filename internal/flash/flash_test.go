package flash

import (
	"testing"
)

func small() Spec {
	s := DefaultSpec()
	s.PageBytes = 64
	s.Pages = 8
	return s
}

func mustNew(t *testing.T, s Spec) *Array {
	t.Helper()
	a, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestSpecValidation(t *testing.T) {
	bad := []func(*Spec){
		func(s *Spec) { s.PageBytes = 0 },
		func(s *Spec) { s.Pages = -1 },
		func(s *Spec) { s.ProgramTimeMeanUs = 0 },
		func(s *Spec) { s.VtOvercharged = s.VtProgrammed },
		func(s *Spec) { s.VtProgrammed = s.VtErased - 1 },
		func(s *Spec) { s.MeasureNoiseV = -1 },
	}
	for i, mutate := range bad {
		s := small()
		mutate(&s)
		if _, err := New(s); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

func TestErasedStateReadsOnes(t *testing.T) {
	a := mustNew(t, small())
	got, err := a.Read(0, a.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != 0xFF {
			t.Fatalf("byte %d = %#x, want 0xFF", i, b)
		}
	}
}

func TestProgramNORSemantics(t *testing.T) {
	a := mustNew(t, small())
	if _, err := a.Program(0, []byte{0xF0}); err != nil {
		t.Fatal(err)
	}
	b, _ := a.ByteAt(0)
	if b != 0xF0 {
		t.Fatalf("after program: %#x", b)
	}
	// Re-programming cannot set bits back to 1.
	if _, err := a.Program(0, []byte{0x0F}); err != nil {
		t.Fatal(err)
	}
	b, _ = a.ByteAt(0)
	if b != 0x00 {
		t.Fatalf("NOR AND semantics violated: %#x", b)
	}
	// Erase restores 1s.
	if err := a.ErasePage(0); err != nil {
		t.Fatal(err)
	}
	b, _ = a.ByteAt(0)
	if b != 0xFF {
		t.Fatalf("after erase: %#x", b)
	}
}

func TestProgramTimeVariationAndWear(t *testing.T) {
	a := mustNew(t, small())
	// Intrinsic variation: program times differ across cells.
	t0, err := a.MeasureProgramTime(0)
	if err != nil {
		t.Fatal(err)
	}
	distinct := false
	for bit := 1; bit < 64; bit++ {
		ti, _ := a.MeasureProgramTime(bit)
		if ti != t0 {
			distinct = true
			break
		}
	}
	if !distinct {
		t.Fatal("no program-time variation")
	}
	// Wear: cycling raises the mean measurably above noise.
	mean := func(bit int) float64 {
		var s float64
		for i := 0; i < 50; i++ {
			v, _ := a.MeasureProgramTime(bit)
			s += v
		}
		return s / 50
	}
	before := mean(7)
	if err := a.CycleBits([]int{7}, 500); err != nil {
		t.Fatal(err)
	}
	after := mean(7)
	wantDelta := 500 * a.Spec().WearSlowdownUsPerCycle
	if after-before < wantDelta*0.8 {
		t.Errorf("wear slowdown = %v, want ≈%v", after-before, wantDelta)
	}
}

func TestEraseDestroysAnalogState(t *testing.T) {
	a := mustNew(t, small())
	if _, err := a.Program(0, []byte{0x00}); err != nil {
		t.Fatal(err)
	}
	if err := a.Overcharge(3); err != nil {
		t.Fatal(err)
	}
	v, _ := a.MarginRead(3)
	if v < a.Spec().VtProgrammed {
		t.Fatalf("overcharged Vt = %v", v)
	}
	if err := a.ErasePage(0); err != nil {
		t.Fatal(err)
	}
	v, _ = a.MarginRead(3)
	if v > a.Spec().VtErased+0.5 {
		t.Errorf("erase left Vt at %v — hidden data survived", v)
	}
}

func TestOverchargeRequiresProgrammedBit(t *testing.T) {
	a := mustNew(t, small())
	if err := a.Overcharge(0); err == nil {
		t.Fatal("overcharge of erased bit accepted")
	}
	if _, err := a.Program(0, []byte{0xFE}); err != nil {
		t.Fatal(err)
	}
	if err := a.Overcharge(0); err != nil {
		t.Fatalf("overcharge of programmed bit rejected: %v", err)
	}
	if err := a.Overcharge(1); err == nil {
		t.Fatal("bit 1 is still erased; overcharge accepted")
	}
}

func TestVtLevelsSeparable(t *testing.T) {
	a := mustNew(t, small())
	if _, err := a.Program(0, []byte{0x00}); err != nil {
		t.Fatal(err)
	}
	if err := a.Overcharge(0); err != nil {
		t.Fatal(err)
	}
	// Margin reads must separate normal-programmed from overcharged.
	vNormal, _ := a.MarginRead(1)
	vHigh, _ := a.MarginRead(0)
	mid := (a.Spec().VtProgrammed + a.Spec().VtOvercharged) / 2
	if !(vNormal < mid && vHigh > mid) {
		t.Errorf("levels not separable: normal=%v high=%v mid=%v", vNormal, vHigh, mid)
	}
}

func TestBoundsChecking(t *testing.T) {
	a := mustNew(t, small())
	if _, err := a.Read(-1, 4); err == nil {
		t.Error("negative read accepted")
	}
	if _, err := a.Read(a.Bytes()-2, 4); err == nil {
		t.Error("overlong read accepted")
	}
	if _, err := a.Program(a.Bytes(), []byte{0}); err == nil {
		t.Error("out-of-range program accepted")
	}
	if err := a.ErasePage(99); err == nil {
		t.Error("bad page erase accepted")
	}
	if err := a.CycleBits([]int{0}, -1); err == nil {
		t.Error("negative cycles accepted")
	}
	if err := a.CycleBits([]int{1 << 30}, 1); err == nil {
		t.Error("bad bit index accepted")
	}
	if _, err := a.MeasureProgramTime(-1); err == nil {
		t.Error("bad measure accepted")
	}
	if _, err := a.MarginRead(1 << 30); err == nil {
		t.Error("bad margin read accepted")
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	a := mustNew(t, small())
	b := mustNew(t, small())
	for bit := 0; bit < 32; bit++ {
		// Intrinsic times match (before measurement noise): compare the
		// stored values through repeated averaging.
		var sa, sb float64
		for i := 0; i < 30; i++ {
			va, _ := a.MeasureProgramTime(bit)
			vb, _ := b.MeasureProgramTime(bit)
			sa += va
			sb += vb
		}
		if d := sa/30 - sb/30; d > 1 || d < -1 {
			t.Fatalf("bit %d intrinsic time differs: %v", bit, d)
		}
	}
}
