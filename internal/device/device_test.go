package device

import (
	"math"
	"strings"
	"testing"

	"invisiblebits/internal/asm"
	"invisiblebits/internal/cpu"
	"invisiblebits/internal/stats"
)

func TestCatalogMatchesTable1(t *testing.T) {
	if len(Catalog) != 12 {
		t.Fatalf("catalog has %d devices, Table 1 lists 12", len(Catalog))
	}
	for _, m := range Catalog {
		if !m.AccessPowerOn || !m.AcceleratedAging {
			t.Errorf("%s: Table 1 shows ✓ for both capability columns", m.Name)
		}
		if m.SRAMBytes <= 0 {
			t.Errorf("%s: bad SRAM size", m.Name)
		}
		if m.SRAMRole != Cache && m.FlashBytes <= 0 {
			t.Errorf("%s: MCU without flash", m.Name)
		}
		if err := m.AgingParams().Validate(); err != nil {
			t.Errorf("%s: invalid aging params: %v", m.Name, err)
		}
	}
	// Spot-check Table 1 rows.
	msp, err := ByName("MSP432P401")
	if err != nil {
		t.Fatal(err)
	}
	if msp.SRAMBytes != 64<<10 || msp.FlashBytes != 256<<10 {
		t.Errorf("MSP432 sizes wrong: %+v", msp)
	}
	rpi, _ := ByName("BCM2837")
	if rpi.SRAMRole != Cache || rpi.SRAMBytes != 768<<10 || !rpi.RequiresRegulatorBypass {
		t.Errorf("BCM2837 row wrong: %+v", rpi)
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("Z80"); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestTable4Models(t *testing.T) {
	ms := Table4Models()
	if len(ms) != 4 {
		t.Fatalf("got %d models", len(ms))
	}
	// Table 4 values.
	want := map[string]struct {
		v     float64
		hours float64
		rate  float64
	}{
		"ATSAML11E16A":   {4.8, 16, 0.972},
		"MSP432P401":     {3.3, 10, 0.935},
		"LPC55S69JBD100": {5.5, 24, 0.885},
		"BCM2837":        {2.2, 120, 0.792},
	}
	for _, m := range ms {
		w := want[m.Name]
		if m.VAccV != w.v || m.EncodingHours != w.hours || m.TargetBitRate != w.rate {
			t.Errorf("%s anchor = (%v V, %v h, %v), want %+v", m.Name, m.VAccV, m.EncodingHours, m.TargetBitRate, w)
		}
		if m.TAccC != 85 {
			t.Errorf("%s: T_acc = %v, Table 4 uses 85°C", m.Name, m.TAccC)
		}
	}
}

func TestAgingParamsAnchored(t *testing.T) {
	// The anchor property: shift at (V_acc, T_acc, EncodingHours) equals
	// σ_m · Φ⁻¹(bit rate).
	for _, m := range Table4Models() {
		p := m.AgingParams()
		got := p.ShiftAfter(m.Accelerated(), m.EncodingHours)
		want := m.MismatchSigmaMv * stats.NormalQuantile(m.TargetBitRate)
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s: anchored shift %v, want %v", m.Name, got, want)
		}
	}
}

func mustDevice(t *testing.T, model, serial string, opts ...Option) *Device {
	t.Helper()
	m, err := ByName(model)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(m, serial, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestSerialDeterminesFingerprint(t *testing.T) {
	a := mustDevice(t, "ATSAML11E16A", "0001")
	b := mustDevice(t, "ATSAML11E16A", "0001")
	c := mustDevice(t, "ATSAML11E16A", "0002")
	sa, err := a.PowerOn(25)
	if err != nil {
		t.Fatal(err)
	}
	sb, _ := b.PowerOn(25)
	sc, _ := c.PowerOn(25)
	if ber := stats.BitErrorRate(sa, sb); ber > 0.05 {
		t.Errorf("same serial differs by %v", ber)
	}
	if ber := stats.BitErrorRate(sa, sc); ber < 0.4 {
		t.Errorf("different serials differ by only %v", ber)
	}
}

func TestNewValidation(t *testing.T) {
	m, _ := ByName("MSP432P401")
	if _, err := New(m, ""); err == nil {
		t.Fatal("empty serial accepted")
	}
}

func TestSRAMLimitOption(t *testing.T) {
	d := mustDevice(t, "BCM2837", "rpi3", WithSRAMLimit(16<<10))
	if d.SRAM.Bytes() != 16<<10 {
		t.Fatalf("limited SRAM = %d bytes", d.SRAM.Bytes())
	}
	if d.Model.SRAMBytes != 768<<10 {
		t.Fatal("model capacity must stay at the full size")
	}
	// A limit above the model size is ignored.
	d2 := mustDevice(t, "ATSAML11E16A", "x", WithSRAMLimit(1<<30))
	if d2.SRAM.Bytes() != 16<<10 {
		t.Fatalf("oversize limit changed SRAM to %d", d2.SRAM.Bytes())
	}
}

func TestGeometryShapes(t *testing.T) {
	cases := []struct{ bits, rows, cols int }{
		{4096, 64, 64},
		{512 << 10, 512, 1024},
		{8, 2, 4},
	}
	for _, c := range cases {
		r, col := geometry(c.bits)
		if r*col != c.bits {
			t.Errorf("geometry(%d) = %dx%d does not cover", c.bits, r, col)
		}
		if r != c.rows || col != c.cols {
			t.Errorf("geometry(%d) = %dx%d, want %dx%d", c.bits, r, col, c.rows, c.cols)
		}
	}
}

func TestDeviceID(t *testing.T) {
	d := mustDevice(t, "MSP432P401", "A7")
	if d.DeviceID() != "MSP432P401:A7" {
		t.Errorf("DeviceID = %q", d.DeviceID())
	}
}

// firmware assembles a program that writes two known words into SRAM and
// busy-waits — the minimal shape of the paper's payload writer.
const firmware = `
        movi r1, #0x0000
        movt r1, #0x2000      ; SRAM base
        la   r2, data
        ldr  r3, [r2, #0]
        str  r3, [r1, #0]
        ldr  r3, [r2, #4]
        str  r3, [r1, #4]
wait:   b    wait
data:   .word 0xCAFEBABE, 0x8BADF00D
`

func TestLoadAndRunFirmware(t *testing.T) {
	d := mustDevice(t, "MSP432P401", "fw1")
	prog, err := asm.Assemble(firmware, FlashBase)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
	if _, err := d.PowerOn(25); err != nil {
		t.Fatal(err)
	}
	reason, err := d.Run(10000)
	if err != nil {
		t.Fatal(err)
	}
	if reason != cpu.StopBusyWait {
		t.Fatalf("stop reason = %v", reason)
	}
	mem, err := d.ReadSRAM()
	if err != nil {
		t.Fatal(err)
	}
	got := uint32(mem[0]) | uint32(mem[1])<<8 | uint32(mem[2])<<16 | uint32(mem[3])<<24
	if got != 0xCAFEBABE {
		t.Errorf("SRAM[0] = %#x", got)
	}
	got = uint32(mem[4]) | uint32(mem[5])<<8 | uint32(mem[6])<<16 | uint32(mem[7])<<24
	if got != 0x8BADF00D {
		t.Errorf("SRAM[4] = %#x", got)
	}
}

func TestRunRequiresPower(t *testing.T) {
	d := mustDevice(t, "MSP432P401", "p")
	if _, err := d.Run(10); err == nil {
		t.Fatal("Run on unpowered device accepted")
	}
}

func TestFlashNotWritableAtRuntime(t *testing.T) {
	d := mustDevice(t, "MSP432P401", "w")
	prog, err := asm.Assemble(`
        movi r1, #0x100       ; flash address
        movi r2, #1
        str  r2, [r1, #0]
        halt
`, FlashBase)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
	if _, err := d.PowerOn(25); err != nil {
		t.Fatal(err)
	}
	reason, err := d.Run(100)
	if reason != cpu.StopFault || err == nil {
		t.Fatalf("reason=%v err=%v", reason, err)
	}
	if !strings.Contains(err.Error(), "flash") {
		t.Errorf("fault message: %v", err)
	}
}

func TestBusFaultOutsideMap(t *testing.T) {
	d := mustDevice(t, "MSP432P401", "bf")
	prog, _ := asm.Assemble(`
        movi r1, #0
        movt r1, #0x4000      ; unmapped peripheral space
        ldr  r2, [r1, #0]
        halt
`, FlashBase)
	if err := d.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
	if _, err := d.PowerOn(25); err != nil {
		t.Fatal(err)
	}
	reason, err := d.Run(100)
	if reason != cpu.StopFault || err == nil {
		t.Fatalf("reason=%v err=%v", reason, err)
	}
}

func TestLoadProgramValidation(t *testing.T) {
	d := mustDevice(t, "MSP432P401", "lv")
	if err := d.LoadProgram(&asm.Program{Origin: 0x1000}); err == nil {
		t.Error("wrong-origin program accepted")
	}
	big := &asm.Program{Origin: FlashBase, Image: make([]byte, d.Flash.Bytes()+1)}
	if err := d.LoadProgram(big); err == nil {
		t.Error("oversized image accepted")
	}
	rpi := mustDevice(t, "BCM2837", "r", WithSRAMLimit(4<<10))
	if err := rpi.LoadProgram(&asm.Program{Origin: FlashBase}); err == nil {
		t.Error("flashless device accepted a program")
	}
}

func TestRegulatorBypassRequired(t *testing.T) {
	// §7.2: the BCM2837's core rail is regulated — direct high-voltage
	// stress must be refused, the bypass path must work.
	d := mustDevice(t, "BCM2837", "rb", WithSRAMLimit(4<<10))
	if _, err := d.PowerOn(25); err != nil {
		t.Fatal(err)
	}
	acc := d.Model.Accelerated()
	if err := d.Stress(acc, 1); err == nil {
		t.Fatal("regulated device accepted direct overvoltage")
	}
	if err := d.StressBypassed(acc, 1); err != nil {
		t.Fatalf("bypassed stress failed: %v", err)
	}
	// Nominal-voltage stress does not need the bypass.
	if err := d.Stress(d.Model.Nominal(), 1); err != nil {
		t.Fatalf("nominal stress refused: %v", err)
	}
}

func TestTable4BitRatesEmerge(t *testing.T) {
	// End-to-end: encode a random payload on each Table 4 device at its
	// own operating point and check the achieved bit rate is within
	// ±1.5 pp of the paper's (acceptance criterion 2 of DESIGN.md).
	for _, m := range Table4Models() {
		d := mustDevice(t, m.Name, "t4", WithSRAMLimit(8<<10))
		if _, err := d.PowerOn(25); err != nil {
			t.Fatal(err)
		}
		payload := make([]byte, d.SRAM.Bytes())
		for i := range payload {
			payload[i] = byte(i*31 + 7)
		}
		if err := d.SRAM.Write(payload); err != nil {
			t.Fatal(err)
		}
		if err := d.StressBypassed(m.Accelerated(), m.EncodingHours); err != nil {
			t.Fatal(err)
		}
		maj, err := d.SRAM.CaptureMajority(5, 25)
		if err != nil {
			t.Fatal(err)
		}
		inv := make([]byte, len(maj))
		for i, b := range maj {
			inv[i] = ^b
		}
		rate := 1 - stats.BitErrorRate(inv, payload)
		if math.Abs(rate-m.TargetBitRate) > 0.015 {
			t.Errorf("%s: bit rate %.4f, paper %.4f", m.Name, rate, m.TargetBitRate)
		}
	}
}

// BenchmarkNew builds a fresh device: the catalog lookup, the mismatch
// synthesis (the field and the white draws, both on the shared worker
// pool) and the digital Flash, at three SRAM sizes (0.5, 16 and 64 KiB).
func BenchmarkNew(b *testing.B) {
	for _, model := range []string{"MSP430G2553", "ATSAML11E16A", "MSP432P401"} {
		b.Run(model, func(b *testing.B) {
			m, err := ByName(model)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := New(m, "bench-new"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
