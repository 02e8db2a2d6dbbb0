package rig

import (
	"context"
	"strings"
	"testing"

	"invisiblebits/internal/cpu"
	"invisiblebits/internal/device"
	"invisiblebits/internal/progen"
	"invisiblebits/internal/rng"
	"invisiblebits/internal/stats"
)

func newRig(t *testing.T, model string) *Rig {
	t.Helper()
	m, err := device.ByName(model)
	if err != nil {
		t.Fatal(err)
	}
	d, err := device.New(m, "rig-test", device.WithSRAMLimit(4<<10))
	if err != nil {
		t.Fatal(err)
	}
	return New(d)
}

func TestInitialConditionsNominal(t *testing.T) {
	r := newRig(t, "MSP432P401")
	c := r.Conditions()
	if c.VoltageV != 1.2 || c.TempC != 25 {
		t.Fatalf("initial conditions = %v", c)
	}
	if r.ClockHours() != 0 {
		t.Fatalf("clock = %v", r.ClockHours())
	}
}

func TestTemperatureRampConsumesTime(t *testing.T) {
	r := newRig(t, "MSP432P401")
	r.SetTemperature(85)
	wantHours := 60.0 / ChamberRampCPerMin / 60
	if got := r.ClockHours(); got < wantHours*0.99 || got > wantHours*1.01 {
		t.Fatalf("ramp consumed %vh, want %vh", got, wantHours)
	}
}

func TestSetVoltageValidation(t *testing.T) {
	r := newRig(t, "MSP432P401")
	if err := r.SetVoltage(0); err == nil {
		t.Error("zero voltage accepted")
	}
	if err := r.SetVoltage(3.3); err != nil {
		t.Errorf("MCU overdrive refused: %v", err)
	}
}

func TestRegulatedDeviceNeedsBypass(t *testing.T) {
	r := newRig(t, "BCM2837")
	if err := r.SetVoltage(2.2); err != ErrNeedsBypass {
		t.Fatalf("err = %v, want ErrNeedsBypass", err)
	}
	if err := r.BypassRegulator(); err != nil {
		t.Fatal(err)
	}
	if err := r.SetVoltage(2.2); err != nil {
		t.Fatalf("post-bypass overdrive refused: %v", err)
	}
	// MCUs don't have (or need) the bypass.
	r2 := newRig(t, "MSP432P401")
	if err := r2.BypassRegulator(); err == nil {
		t.Error("bypass on unregulated device accepted")
	}
}

func TestFullEncodeDecodeWorkflow(t *testing.T) {
	// Algorithm 1 + Algorithm 2 driven through the rig, end to end, with
	// the payload writer actually executing on the simulated CPU.
	r := newRig(t, "MSP432P401")
	d := r.Device()

	payload := make([]byte, d.SRAM.Bytes())
	rng.NewSource(2024).Bytes(payload)

	// Encode: load writer at nominal, run, elevate, soak.
	src, err := progen.WriterProgram(payload)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := progen.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
	if _, err := r.PowerOn(); err != nil {
		t.Fatal(err)
	}
	reason, err := r.RunFirmware(50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if reason != cpu.StopBusyWait {
		t.Fatalf("writer stopped with %v", reason)
	}
	if err := r.SetVoltage(d.Model.VAccV); err != nil {
		t.Fatal(err)
	}
	r.SetTemperature(d.Model.TAccC)
	if err := r.StressForContext(context.Background(), d.Model.EncodingHours); err != nil {
		t.Fatal(err)
	}
	// Back to nominal; load camouflage.
	r.SetTemperature(d.Model.TNomC)
	if err := r.SetVoltage(d.Model.VNomV); err != nil {
		t.Fatal(err)
	}
	r.PowerOff()
	camo, err := progen.Assemble(progen.CamouflageProgram())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.LoadProgram(camo); err != nil {
		t.Fatal(err)
	}

	// Decode: retainer, five captures, majority, invert.
	ret, err := progen.Assemble(progen.RetainerProgram())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.LoadProgram(ret); err != nil {
		t.Fatal(err)
	}
	maj, err := r.SampleMajorityContext(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	recovered := make([]byte, len(maj))
	for i, b := range maj {
		recovered[i] = ^b
	}
	ber := stats.BitErrorRate(recovered, payload)
	if ber < 0.04 || ber > 0.09 {
		t.Fatalf("end-to-end channel error = %v, want ≈0.065", ber)
	}
	if r.ClockHours() < d.Model.EncodingHours {
		t.Errorf("clock %v did not advance through stress", r.ClockHours())
	}
}

func TestStressForValidation(t *testing.T) {
	r := newRig(t, "MSP432P401")
	if err := r.StressForContext(context.Background(), 0); err == nil {
		t.Error("zero-duration stress accepted")
	}
	// Unpowered stress must fail (SRAM holds nothing).
	if err := r.StressForContext(context.Background(), 1); err == nil {
		t.Error("stress on unpowered device accepted")
	}
}

func TestShelveAdvancesClock(t *testing.T) {
	r := newRig(t, "MSP432P401")
	if err := r.ShelveFor(24); err != nil {
		t.Fatal(err)
	}
	if r.ClockHours() != 24 {
		t.Fatalf("clock = %v", r.ClockHours())
	}
}

func TestSampleMajorityFromPoweredState(t *testing.T) {
	r := newRig(t, "MSP432P401")
	if _, err := r.PowerOn(); err != nil {
		t.Fatal(err)
	}
	maj1, err := r.SampleMajorityContext(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	maj2, err := r.SampleMajorityContext(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	// An unaged device has genuinely metastable cells near the mismatch
	// origin; ~1% cross-majority churn is the expected physical noise
	// (encoded devices are far more stable — see the sram tests).
	if ber := stats.BitErrorRate(maj1, maj2); ber > 0.03 {
		t.Errorf("majority unstable across samplings: %v", ber)
	}
	if !r.Device().SRAM.Powered() {
		t.Error("device should be left powered after sampling")
	}
}

func TestSampleVotesConsistentWithMajority(t *testing.T) {
	r := newRig(t, "MSP432P401")
	maj, err := r.SampleMajorityContext(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	votes := make([]uint16, r.Device().SRAM.Cells())
	if err := r.SampleVotesIntoContext(context.Background(), 5, votes); err != nil {
		t.Fatal(err)
	}
	if len(votes) != len(maj)*8 {
		t.Fatalf("votes length %d for %d bytes", len(votes), len(maj))
	}
	// Vote counts and majority must agree for decisive cells.
	disagree := 0
	for i, v := range votes {
		bit := maj[i/8]&(1<<(i%8)) != 0
		if v == 5 && !bit || v == 0 && bit {
			disagree++
		}
	}
	// Marginal cells can flip between the two samplings; decisive (0/5 or
	// 5/5) cells almost never do.
	if frac := float64(disagree) / float64(len(votes)); frac > 0.01 {
		t.Errorf("decisive-cell disagreement fraction %v", frac)
	}
	if !r.Device().SRAM.Powered() {
		t.Error("device should be left powered")
	}
}

func TestPowerOnCyclesWhenAlreadyPowered(t *testing.T) {
	r := newRig(t, "MSP432P401")
	if _, err := r.PowerOn(); err != nil {
		t.Fatal(err)
	}
	// Second PowerOn must cycle cleanly instead of erroring.
	if _, err := r.PowerOn(); err != nil {
		t.Fatalf("re-PowerOn failed: %v", err)
	}
}

func TestEventLog(t *testing.T) {
	r := newRig(t, "MSP432P401")
	r.SetTemperature(85)
	if err := r.SetVoltage(3.3); err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(r.Events(), "\n")
	for _, want := range []string{"mounted MSP432P401", "chamber -> 85", "supply -> 3.30V"} {
		if !strings.Contains(joined, want) {
			t.Errorf("log missing %q:\n%s", want, joined)
		}
	}
	// Events() must return a copy.
	ev := r.Events()
	if len(ev) > 0 {
		ev[0] = "tampered"
		if r.Events()[0] == "tampered" {
			t.Error("Events exposes internal slice")
		}
	}
}
