package analog

import (
	"math"
	"testing"
	"testing/quick"
)

// msp432ish returns a parameter set shaped like the MSP432 calibration:
// 45.4 mV of shift after 10 h at the accelerated reference condition.
func msp432ish() Params {
	return Params{
		A0MvPerHourN: CalibrateA0(0.66, 45.4, 10),
		TimeExponent: 0.66,
		GammaPerVolt: 1.6,
		ActivationEV: 0.19,
		Ref:          Conditions{VoltageV: 3.3, TempC: 85},
		RecFastFrac:  0.12,
		RecSlowFrac:  0.16,
		TauFastHours: 100,
		TauSlowHours: 1350,
	}
}

func TestValidateAcceptsCalibratedParams(t *testing.T) {
	if err := msp432ish().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	bad := []func(*Params){
		func(p *Params) { p.A0MvPerHourN = 0 },
		func(p *Params) { p.TimeExponent = 0 },
		func(p *Params) { p.TimeExponent = 1.2 },
		func(p *Params) { p.GammaPerVolt = -1 },
		func(p *Params) { p.ActivationEV = -0.1 },
		func(p *Params) { p.RecFastFrac = 0.9; p.RecSlowFrac = 0.2 },
		func(p *Params) { p.TauFastHours = 0 },
		func(p *Params) { p.Ref.TempC = -300 },
	}
	for i, mutate := range bad {
		p := msp432ish()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestCalibrationAnchor(t *testing.T) {
	p := msp432ish()
	got := p.ShiftAfter(p.Ref, 10)
	if math.Abs(got-45.4) > 1e-9 {
		t.Fatalf("anchored shift = %v, want 45.4", got)
	}
}

func TestRateMonotoneInVoltageAndTemp(t *testing.T) {
	p := msp432ish()
	base := p.Rate(Conditions{VoltageV: 1.2, TempC: 25})
	hotterT := p.Rate(Conditions{VoltageV: 1.2, TempC: 85})
	hotterV := p.Rate(Conditions{VoltageV: 3.3, TempC: 25})
	both := p.Rate(Conditions{VoltageV: 3.3, TempC: 85})
	if !(base < hotterT && hotterT < both && base < hotterV && hotterV < both) {
		t.Fatalf("acceleration ordering violated: %v %v %v %v", base, hotterT, hotterV, both)
	}
	// Fig. 3d: "voltage has the largest acceleration effect".
	if hotterV <= hotterT {
		t.Errorf("voltage knob (%v) should beat temperature knob (%v)", hotterV, hotterT)
	}
}

func TestNominalAgingIsNegligible(t *testing.T) {
	// §5.1.4 requires that a week at nominal conditions barely ages the
	// device. Nominal rate must be ≲2% of the accelerated rate.
	p := msp432ish()
	accel := p.Rate(Conditions{VoltageV: 1.2, TempC: 25}) / p.A0MvPerHourN
	if accel > 0.02 {
		t.Fatalf("nominal acceleration factor %v too high for message retention", accel)
	}
}

func TestShiftAfterPowerLaw(t *testing.T) {
	p := msp432ish()
	s2 := p.ShiftAfter(p.Ref, 2)
	s10 := p.ShiftAfter(p.Ref, 10)
	wantRatio := math.Pow(5, 0.66)
	if r := s10 / s2; math.Abs(r-wantRatio) > 1e-9 {
		t.Fatalf("shift ratio = %v, want %v", r, wantRatio)
	}
	if p.ShiftAfter(p.Ref, 0) != 0 || p.ShiftAfter(p.Ref, -1) != 0 {
		t.Fatal("nonpositive durations must give zero shift")
	}
}

func TestGrowShiftComposes(t *testing.T) {
	// Stressing 4h then 6h must equal stressing 10h in one go (same c).
	p := msp432ish()
	oneShot := p.ShiftAfter(p.Ref, 10)
	staged := p.GrowShift(p.GrowShift(0, p.Ref, 4), p.Ref, 6)
	if math.Abs(oneShot-staged) > 1e-9 {
		t.Fatalf("effective-time accumulation broken: %v vs %v", oneShot, staged)
	}
}

func TestGrowShiftCompositionProperty(t *testing.T) {
	p := msp432ish()
	f := func(aRaw, bRaw uint16) bool {
		a := float64(aRaw%1000)/100 + 0.01 // 0.01..10.01 h
		b := float64(bRaw%1000)/100 + 0.01
		oneShot := p.ShiftAfter(p.Ref, a+b)
		staged := p.GrowShift(p.GrowShift(0, p.Ref, a), p.Ref, b)
		return math.Abs(oneShot-staged) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGrowShiftSublinear(t *testing.T) {
	// Later stress hours buy less shift than earlier ones (saturation).
	p := msp432ish()
	first := p.GrowShift(0, p.Ref, 1)
	second := p.GrowShift(first, p.Ref, 1) - first
	if second >= first {
		t.Fatalf("aging is not sublinear: first hour %v, second hour %v", first, second)
	}
}

func TestStressStateSplitsPools(t *testing.T) {
	p := msp432ish()
	var s StressState
	s.Stress(p, p.Ref, 10)
	total := s.Total()
	if math.Abs(total-45.4) > 1e-9 {
		t.Fatalf("total = %v", total)
	}
	if math.Abs(s.Perm/total-p.PermanentFrac()) > 1e-9 {
		t.Errorf("permanent fraction = %v, want %v", s.Perm/total, p.PermanentFrac())
	}
	if math.Abs(s.Fast/total-p.RecFastFrac) > 1e-9 || math.Abs(s.Slow/total-p.RecSlowFrac) > 1e-9 {
		t.Errorf("pool split wrong: %+v", s)
	}
}

func TestRecoveryShape(t *testing.T) {
	// Fig. 7: recovery loss ~12% of shift after 1 week, ~18% after 4 weeks,
	// plateauing near the total recoverable share (28%) by 14 weeks.
	p := msp432ish()
	var s StressState
	s.Stress(p, p.Ref, 10)
	t0 := s.Total()

	week := s
	week.Recover(p, 7*24)
	lossWeek := 1 - week.Total()/t0

	month := s
	month.Recover(p, 28*24)
	lossMonth := 1 - month.Total()/t0

	long := s
	long.Recover(p, 98*24)
	lossLong := 1 - long.Total()/t0

	if !(lossWeek < lossMonth && lossMonth < lossLong) {
		t.Fatalf("recovery not monotone: %v %v %v", lossWeek, lossMonth, lossLong)
	}
	if lossWeek < 0.08 || lossWeek > 0.16 {
		t.Errorf("1-week loss = %v, want ~0.12", lossWeek)
	}
	if lossMonth < 0.14 || lossMonth > 0.23 {
		t.Errorf("4-week loss = %v, want ~0.18", lossMonth)
	}
	if lossLong > p.RecFastFrac+p.RecSlowFrac {
		t.Errorf("loss %v exceeded recoverable share", lossLong)
	}
	// "The recovery rate decays exponentially with time": the first week
	// must recover more than the fourth week.
	week3 := s
	week3.Recover(p, 3*7*24)
	week4 := s
	week4.Recover(p, 4*7*24)
	rateFirst := lossWeek
	rateFourth := (1 - week4.Total()/t0) - (1 - week3.Total()/t0)
	if rateFourth >= rateFirst {
		t.Errorf("recovery rate did not decay: first %v, fourth %v", rateFirst, rateFourth)
	}
}

func TestPermanentComponentSurvives(t *testing.T) {
	p := msp432ish()
	var s StressState
	s.Stress(p, p.Ref, 10)
	s.Recover(p, 1e6) // effectively forever
	if s.Total() < s.Perm || math.Abs(s.Total()-45.4*p.PermanentFrac()) > 0.5 {
		t.Fatalf("permanent component wrong after total recovery: %v", s.Total())
	}
}

func TestRecoverNoOpForNonPositive(t *testing.T) {
	p := msp432ish()
	var s StressState
	s.Stress(p, p.Ref, 1)
	before := s.Total()
	s.Recover(p, 0)
	s.Recover(p, -5)
	if s.Total() != before {
		t.Fatal("Recover mutated state for non-positive dt")
	}
}

func TestConditionsHelpers(t *testing.T) {
	c := Conditions{VoltageV: 3.3, TempC: 85}
	if math.Abs(c.Kelvin()-358.15) > 1e-9 {
		t.Errorf("Kelvin = %v", c.Kelvin())
	}
	if c.String() != "3.3V/85°C" {
		t.Errorf("String = %q", c.String())
	}
}

func TestCalibrateA0Panics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero hours")
		}
	}()
	CalibrateA0(0.66, 10, 0)
}

// StressState is the three-pool decomposition of one transistor's (or
// one stress direction's) accumulated threshold shift — the model the
// Fig. 7 calibration tests run; the SRAM aging engine keeps the same
// pools per history class.
type StressState struct {
	Perm float64 // permanent component, mV
	Fast float64 // fast-recoverable component, mV
	Slow float64 // slow-recoverable component, mV
}

// Total returns the present effective shift in mV.
func (s StressState) Total() float64 { return s.Perm + s.Fast + s.Slow }

// Stress applies dt hours of stress under c, splitting the increment into
// the permanent and recoverable pools per p.
func (s *StressState) Stress(p Params, c Conditions, dtHours float64) {
	if dtHours <= 0 {
		return
	}
	total := s.Total()
	grown := p.GrowShift(total, c, dtHours)
	delta := grown - total
	if delta <= 0 {
		return
	}
	s.Perm += delta * p.PermanentFrac()
	s.Fast += delta * p.RecFastFrac
	s.Slow += delta * p.RecSlowFrac
}

// Recover lets the recoverable pools decay for dt unstressed hours.
func (s *StressState) Recover(p Params, dtHours float64) {
	f, sl := p.RecoveryFactors(dtHours)
	s.Fast *= f
	s.Slow *= sl
}
