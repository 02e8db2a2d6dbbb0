// Package analog models the transistor-aging physics that Invisible Bits
// exploits (§2.2 of the paper): Negative Bias Temperature Instability
// (NBTI) stress on the active PMOS of an SRAM cell's cross-coupled
// inverter pair, its voltage/temperature acceleration, and its partial
// recovery once stress is released.
//
// # Model
//
// Stress-induced threshold-voltage shift follows the reaction–diffusion
// power law used throughout the aging literature:
//
//	ΔVth(t; V, T) = A(V, T) · tⁿ
//	A(V, T)       = A0 · exp(γ·(V − Vref)) · exp(−(Ea/k)·(1/T − 1/Tref))
//
// The time exponent n and the per-device prefactor A0 are *calibrated* to
// the paper's measured error-vs-stress-time data (Fig. 6, Table 4) rather
// than to first-principles constants — the paper's real devices are the
// ground truth this simulator must match in shape (see DESIGN.md §1).
//
// Accumulation is state-dependent ("effective time"): a transistor that
// already carries shift s under rate A behaves as if it had been stressed
// for t_eq = (s/A)^(1/n); further stress of duration dt grows the shift to
// A·(t_eq+dt)ⁿ. This makes repeated, interleaved stress episodes (encode →
// normal operation → adversarial aging) compose correctly and keeps the
// power law sublinear.
//
// Recovery: each stress increment is split into a permanent part and two
// recoverable pools (fast and slow) that decay exponentially once stress
// is released. The two-pool sum reproduces the paper's observation that
// "recovery follows a logarithmic relation with time" and that "the
// recovery rate decays exponentially with time" (Fig. 7).
package analog

import (
	"fmt"
	"math"
)

// BoltzmannEVPerK is the Boltzmann constant in eV/K.
const BoltzmannEVPerK = 8.617333262e-5

// Conditions describes the electrical/thermal environment during a stress
// or measurement episode.
type Conditions struct {
	VoltageV float64 // supply voltage in volts
	TempC    float64 // die temperature in degrees Celsius
}

// Kelvin returns the absolute temperature.
func (c Conditions) Kelvin() float64 { return c.TempC + 273.15 }

func (c Conditions) String() string {
	return fmt.Sprintf("%.1fV/%.0f°C", c.VoltageV, c.TempC)
}

// Params captures one device's NBTI aging response. All voltage shifts are
// in millivolts and all times in (simulated) hours.
type Params struct {
	// A0MvPerHourN is the stress prefactor at the reference conditions, in
	// mV per hour^TimeExponent.
	A0MvPerHourN float64
	// TimeExponent is the power-law exponent n (calibrated ≈0.66, fitted to
	// Fig. 6's 33%→6.5% error decay between 2 h and 10 h).
	TimeExponent float64
	// GammaPerVolt is the exponential voltage-acceleration coefficient γ.
	GammaPerVolt float64
	// ActivationEV is the Arrhenius activation energy Ea in eV.
	ActivationEV float64
	// Ref is the reference (calibration) condition at which A0 applies —
	// conventionally the device's accelerated encoding condition.
	Ref Conditions

	// RecFastFrac and RecSlowFrac are the fractions of each stress
	// increment that land in the fast and slow recoverable pools; the
	// remainder (1 − fast − slow) is permanent. §5.1.3: "Most of the
	// transistors in a circuit retain their stress-induced degradation …
	// some transistors, however, partially recover".
	RecFastFrac float64
	RecSlowFrac float64
	// TauFastHours and TauSlowHours are the exponential decay constants of
	// the two recoverable pools at the nominal storage temperature
	// (RecTRefC).
	TauFastHours float64
	TauSlowHours float64
	// RecActivationEV is the Arrhenius activation energy of recovery:
	// hot storage relaxes BTI damage faster (the basis of the "baking
	// attack" — an adversary storing a suspect device in an oven to erase
	// a potential message). Zero disables temperature acceleration.
	RecActivationEV float64
	// RecTRefC is the reference storage temperature for the recovery time
	// constants (defaults to 25 °C when zero).
	RecTRefC float64
}

// Validate reports whether the parameter set is physically coherent.
func (p Params) Validate() error {
	switch {
	case p.A0MvPerHourN <= 0:
		return fmt.Errorf("analog: A0 must be positive, got %v", p.A0MvPerHourN)
	case p.TimeExponent <= 0 || p.TimeExponent >= 1:
		return fmt.Errorf("analog: time exponent must be in (0,1), got %v", p.TimeExponent)
	case p.GammaPerVolt < 0:
		return fmt.Errorf("analog: negative voltage acceleration %v", p.GammaPerVolt)
	case p.ActivationEV < 0:
		return fmt.Errorf("analog: negative activation energy %v", p.ActivationEV)
	case p.RecFastFrac < 0 || p.RecSlowFrac < 0 || p.RecFastFrac+p.RecSlowFrac >= 1:
		return fmt.Errorf("analog: recoverable fractions (%v, %v) must be non-negative and sum below 1",
			p.RecFastFrac, p.RecSlowFrac)
	case p.TauFastHours <= 0 || p.TauSlowHours <= 0:
		return fmt.Errorf("analog: recovery time constants must be positive")
	case p.Ref.Kelvin() <= 0:
		return fmt.Errorf("analog: reference temperature below absolute zero")
	}
	return nil
}

// Rate returns the stress prefactor A(V, T) in mV/hourⁿ under c.
func (p Params) Rate(c Conditions) float64 {
	dv := c.VoltageV - p.Ref.VoltageV
	arr := -(p.ActivationEV / BoltzmannEVPerK) * (1/c.Kelvin() - 1/p.Ref.Kelvin())
	return p.A0MvPerHourN * math.Exp(p.GammaPerVolt*dv) * math.Exp(arr)
}

// ShiftAfter returns the total shift in mV after stressing a fresh
// transistor for hours under c.
func (p Params) ShiftAfter(c Conditions, hours float64) float64 {
	if hours <= 0 {
		return 0
	}
	return p.Rate(c) * math.Pow(hours, p.TimeExponent)
}

// GrowShift advances an existing total shift (mV) by dt hours of stress
// under c, using effective-time accumulation. It returns the new total.
func (p Params) GrowShift(total float64, c Conditions, dtHours float64) float64 {
	if dtHours <= 0 {
		return total
	}
	a := p.Rate(c)
	tEq := 0.0
	if total > 0 {
		tEq = math.Pow(total/a, 1/p.TimeExponent)
	}
	return a * math.Pow(tEq+dtHours, p.TimeExponent)
}

// RecoveryFactors returns the surviving fractions of the fast and slow
// recoverable pools after dt hours without stress at the reference
// storage temperature.
func (p Params) RecoveryFactors(dtHours float64) (fast, slow float64) {
	return p.RecoveryFactorsAt(dtHours, p.recTRef())
}

func (p Params) recTRef() float64 {
	if p.RecTRefC == 0 {
		return 25
	}
	return p.RecTRefC
}

// RecoveryAccel returns the Arrhenius acceleration of recovery at the
// given storage temperature relative to the reference.
func (p Params) RecoveryAccel(tempC float64) float64 {
	if p.RecActivationEV <= 0 {
		return 1
	}
	tRef := p.recTRef() + 273.15
	t := tempC + 273.15
	return math.Exp(-(p.RecActivationEV / BoltzmannEVPerK) * (1/t - 1/tRef))
}

// RecoveryFactorsAt returns the surviving pool fractions after dt hours
// of unpowered storage at tempC.
func (p Params) RecoveryFactorsAt(dtHours, tempC float64) (fast, slow float64) {
	if dtHours <= 0 {
		return 1, 1
	}
	eff := dtHours * p.RecoveryAccel(tempC)
	return math.Exp(-eff / p.TauFastHours), math.Exp(-eff / p.TauSlowHours)
}

// PermanentFrac returns the non-recoverable share of a stress increment.
func (p Params) PermanentFrac() float64 { return 1 - p.RecFastFrac - p.RecSlowFrac }

// CalibrateA0 returns the A0 that makes ShiftAfter(ref, hours) equal
// targetShiftMv when ref is also the parameter set's reference condition.
// The device catalog uses this to anchor each device to its Table 4
// operating point (e.g. MSP432: 6.5 % error after 10 h at 3.3 V/85 °C).
func CalibrateA0(timeExponent, targetShiftMv, hours float64) float64 {
	if hours <= 0 || targetShiftMv <= 0 {
		panic("analog: CalibrateA0 requires positive target and duration")
	}
	return targetShiftMv / math.Pow(hours, timeExponent)
}
