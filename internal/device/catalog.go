// Package device provides the catalog of commercial devices the paper
// evaluates (Table 1) and a full simulated device: SRAM array, Flash
// program store, IB32 CPU, debugger access, and power control.
//
// Each catalog entry carries the calibration anchor that pins its
// simulated aging response to the paper's measured Table 4 operating
// point (accelerated voltage, encoding time, achieved bit rate). Devices
// the paper lists but does not characterize in Table 4 get class-typical
// anchors so the whole Table 1 fleet is usable.
package device

import (
	"fmt"

	"invisiblebits/internal/analog"
	"invisiblebits/internal/stats"
)

// SRAMKind describes how the paper reaches the device's SRAM.
type SRAMKind string

// SRAM roles from Table 1/Table 4.
const (
	MainMemory SRAMKind = "main memory"
	Cache      SRAMKind = "cache"
)

// Model is a catalog entry (one row of Table 1).
type Model struct {
	Name         string
	CPUCore      string
	Manufacturer string
	SRAMBytes    int
	FlashBytes   int
	SRAMRole     SRAMKind
	// AccessPowerOn and AcceleratedAging are the two ✓ columns of Table 1.
	AccessPowerOn    bool
	AcceleratedAging bool

	// Operating points.
	VNomV float64 // nominal core voltage
	TNomC float64 // nominal temperature
	VAccV float64 // accelerated encoding voltage (Table 4)
	TAccC float64 // accelerated encoding temperature
	// EncodingHours is the Table 4 stress time.
	EncodingHours float64
	// TargetBitRate is the Table 4 single-copy bit rate the anchor must
	// reproduce at (VAccV, TAccC, EncodingHours).
	TargetBitRate float64
	// RequiresRegulatorBypass marks complex devices whose core rail must
	// be reached through the regulator's inductor pin (§7.2).
	RequiresRegulatorBypass bool
	// MismatchSigmaMv scales process variation (technology dependent).
	MismatchSigmaMv float64
}

// Conditions helpers.

// Accelerated returns the device's encoding (stress) conditions.
func (m Model) Accelerated() analog.Conditions {
	return analog.Conditions{VoltageV: m.VAccV, TempC: m.TAccC}
}

// OverdriveSafetyFactor is the headroom above the characterized
// accelerated voltage that the rig will still apply. §7.2 cautions that
// elevating a core rail beyond the stress point the lot was
// characterized at risks destroying the device outright; the rig
// enforces this ceiling rather than trusting every experiment script.
const OverdriveSafetyFactor = 1.25

// SafeVoltageCeiling returns the absolute maximum supply voltage the
// rig may apply to this device: the larger of the nominal and Table 4
// accelerated voltages, with OverdriveSafetyFactor of headroom.
func (m Model) SafeVoltageCeiling() float64 {
	v := m.VNomV
	if m.VAccV > v {
		v = m.VAccV
	}
	return v * OverdriveSafetyFactor
}

// AgingParams derives the device's calibrated NBTI parameter set: the
// prefactor is anchored so that EncodingHours of stress at the
// accelerated condition produce exactly the threshold shift that yields
// TargetBitRate against the device's Gaussian mismatch population
// (shift = σ_m · Φ⁻¹(bit rate); see DESIGN.md §3.2).
func (m Model) AgingParams() analog.Params {
	targetShift := m.MismatchSigmaMv * stats.NormalQuantile(m.TargetBitRate)
	const n = 0.66 // fitted to Fig. 6's error decay
	return analog.Params{
		A0MvPerHourN:    analog.CalibrateA0(n, targetShift, m.EncodingHours),
		TimeExponent:    n,
		GammaPerVolt:    1.6,
		ActivationEV:    0.19,
		Ref:             m.Accelerated(),
		RecFastFrac:     0.12,
		RecSlowFrac:     0.16,
		TauFastHours:    100,
		TauSlowHours:    1350,
		RecActivationEV: 0.30,
		RecTRefC:        25,
	}
}

// Catalog reproduces Table 1. Table 4 rows carry their measured anchors;
// the remaining devices get class-typical anchors (93 % at 10 h, 3.3 V).
var Catalog = []Model{
	{
		Name: "MSP430G2553", CPUCore: "MSP430 single cycle", Manufacturer: "Texas Instruments",
		SRAMBytes: 512, FlashBytes: 16 << 10, SRAMRole: MainMemory,
		AccessPowerOn: true, AcceleratedAging: true,
		VNomV: 1.8, TNomC: 25, VAccV: 3.6, TAccC: 85,
		EncodingHours: 10, TargetBitRate: 0.93, MismatchSigmaMv: 30,
	},
	{
		Name: "MSP432P401", CPUCore: "ARM Cortex-M4", Manufacturer: "Texas Instruments",
		SRAMBytes: 64 << 10, FlashBytes: 256 << 10, SRAMRole: MainMemory,
		AccessPowerOn: true, AcceleratedAging: true,
		VNomV: 1.2, TNomC: 25, VAccV: 3.3, TAccC: 85,
		EncodingHours: 10, TargetBitRate: 0.935, MismatchSigmaMv: 30,
	},
	{
		Name: "EFM32WG990F256", CPUCore: "ARM Cortex-M4", Manufacturer: "Silicon Labs",
		SRAMBytes: 32 << 10, FlashBytes: 256 << 10, SRAMRole: MainMemory,
		AccessPowerOn: true, AcceleratedAging: true,
		VNomV: 1.2, TNomC: 25, VAccV: 3.6, TAccC: 85,
		EncodingHours: 10, TargetBitRate: 0.93, MismatchSigmaMv: 30,
	},
	{
		Name: "ATSAML11E16A", CPUCore: "ARM Cortex-M23", Manufacturer: "Microchip",
		SRAMBytes: 16 << 10, FlashBytes: 64 << 10, SRAMRole: MainMemory,
		AccessPowerOn: true, AcceleratedAging: true,
		VNomV: 1.2, TNomC: 25, VAccV: 4.8, TAccC: 85,
		EncodingHours: 16, TargetBitRate: 0.972, MismatchSigmaMv: 28,
	},
	{
		Name: "M263KIAAE", CPUCore: "ARM Cortex-M23", Manufacturer: "Nuvoton",
		SRAMBytes: 96 << 10, FlashBytes: 512 << 10, SRAMRole: MainMemory,
		AccessPowerOn: true, AcceleratedAging: true,
		VNomV: 1.2, TNomC: 25, VAccV: 3.6, TAccC: 85,
		EncodingHours: 12, TargetBitRate: 0.93, MismatchSigmaMv: 30,
	},
	{
		Name: "M2351SFSIAAP", CPUCore: "ARM Cortex-M23", Manufacturer: "Nuvoton",
		SRAMBytes: 96 << 10, FlashBytes: 512 << 10, SRAMRole: MainMemory,
		AccessPowerOn: true, AcceleratedAging: true,
		VNomV: 1.2, TNomC: 25, VAccV: 3.6, TAccC: 85,
		EncodingHours: 12, TargetBitRate: 0.93, MismatchSigmaMv: 30,
	},
	{
		Name: "M252KG6AE", CPUCore: "ARM Cortex-M23", Manufacturer: "Nuvoton",
		SRAMBytes: 32 << 10, FlashBytes: 256 << 10, SRAMRole: MainMemory,
		AccessPowerOn: true, AcceleratedAging: true,
		VNomV: 1.2, TNomC: 25, VAccV: 3.6, TAccC: 85,
		EncodingHours: 12, TargetBitRate: 0.93, MismatchSigmaMv: 30,
	},
	{
		Name: "M251SD2AE", CPUCore: "ARM Cortex-M23", Manufacturer: "Nuvoton",
		SRAMBytes: 12 << 10, FlashBytes: 64 << 10, SRAMRole: MainMemory,
		AccessPowerOn: true, AcceleratedAging: true,
		VNomV: 1.2, TNomC: 25, VAccV: 3.6, TAccC: 85,
		EncodingHours: 12, TargetBitRate: 0.93, MismatchSigmaMv: 30,
	},
	{
		Name: "R7FS1JA783A01CFM", CPUCore: "ARM Cortex-M23", Manufacturer: "Renesas Electronics",
		SRAMBytes: 32 << 10, FlashBytes: 256 << 10, SRAMRole: MainMemory,
		AccessPowerOn: true, AcceleratedAging: true,
		VNomV: 1.2, TNomC: 25, VAccV: 3.6, TAccC: 85,
		EncodingHours: 12, TargetBitRate: 0.93, MismatchSigmaMv: 30,
	},
	{
		Name: "STM32L562", CPUCore: "ARM Cortex-M33", Manufacturer: "STMicroelectronics",
		SRAMBytes: 40 << 10, FlashBytes: 256 << 10, SRAMRole: MainMemory,
		AccessPowerOn: true, AcceleratedAging: true,
		VNomV: 1.2, TNomC: 25, VAccV: 3.6, TAccC: 85,
		EncodingHours: 12, TargetBitRate: 0.93, MismatchSigmaMv: 30,
	},
	{
		Name: "LPC55S69JBD100", CPUCore: "Dual-core ARM Cortex-M33", Manufacturer: "NXP Semiconductors",
		SRAMBytes: 320 << 10, FlashBytes: 640 << 10, SRAMRole: MainMemory,
		AccessPowerOn: true, AcceleratedAging: true,
		VNomV: 1.2, TNomC: 25, VAccV: 5.5, TAccC: 85,
		EncodingHours: 24, TargetBitRate: 0.885, MismatchSigmaMv: 32,
	},
	{
		Name: "BCM2837", CPUCore: "Quad-core ARM Cortex-A53", Manufacturer: "Broadcom",
		SRAMBytes: 768 << 10, FlashBytes: 0, SRAMRole: Cache,
		AccessPowerOn: true, AcceleratedAging: true,
		VNomV: 1.2, TNomC: 25, VAccV: 2.2, TAccC: 85,
		EncodingHours: 120, TargetBitRate: 0.792, MismatchSigmaMv: 34,
		RequiresRegulatorBypass: true,
	},
}

// ByName finds a catalog entry.
func ByName(name string) (Model, error) {
	for _, m := range Catalog {
		if m.Name == name {
			return m, nil
		}
	}
	return Model{}, fmt.Errorf("device: unknown model %q", name)
}

// Table4Models returns the four devices the paper fully characterizes.
func Table4Models() []Model {
	names := []string{"ATSAML11E16A", "MSP432P401", "LPC55S69JBD100", "BCM2837"}
	out := make([]Model, 0, len(names))
	for _, n := range names {
		m, err := ByName(n)
		if err != nil {
			panic(err) // catalog and list are both compiled in; a miss is a programming error
		}
		out = append(out, m)
	}
	return out
}
