package progen

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"invisiblebits/internal/cpu"
	"invisiblebits/internal/device"
	"invisiblebits/internal/rng"
)

func newDevice(t *testing.T) *device.Device {
	t.Helper()
	m, err := device.ByName("MSP432P401")
	if err != nil {
		t.Fatal(err)
	}
	d, err := device.New(m, "progen-test", device.WithSRAMLimit(4<<10))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// loadAndRun assembles src, loads it, powers on, and runs to busy-wait.
func loadAndRun(t *testing.T, d *device.Device, src string, maxSteps uint64) cpu.StopReason {
	t.Helper()
	prog, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
	if _, err := d.PowerOn(25); err != nil {
		t.Fatal(err)
	}
	reason, err := d.Run(maxSteps)
	if err != nil {
		t.Fatal(err)
	}
	return reason
}

func TestWriterProgramWritesExactPayload(t *testing.T) {
	d := newDevice(t)
	payload := make([]byte, d.SRAM.Bytes())
	rng.NewSource(42).Bytes(payload)

	src, err := WriterProgram(payload)
	if err != nil {
		t.Fatal(err)
	}
	reason := loadAndRun(t, d, src, 10_000_000)
	if reason != cpu.StopBusyWait {
		t.Fatalf("stop reason = %v, want busy-wait", reason)
	}
	mem, err := d.ReadSRAM()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mem, payload) {
		t.Fatal("SRAM contents differ from payload after writer ran")
	}
}

func TestWriterProgramPartialPayload(t *testing.T) {
	// A payload smaller than SRAM writes only its own extent.
	d := newDevice(t)
	payload := []byte{0xDE, 0xAD, 0xBE, 0xEF, 0x01, 0x02, 0x03, 0x04}
	src, err := WriterProgram(payload)
	if err != nil {
		t.Fatal(err)
	}
	if reason := loadAndRun(t, d, src, 100000); reason != cpu.StopBusyWait {
		t.Fatalf("reason = %v", reason)
	}
	mem, _ := d.ReadSRAM()
	if !bytes.Equal(mem[:8], payload) {
		t.Fatalf("prefix = % x", mem[:8])
	}
}

func TestWriterProgramValidation(t *testing.T) {
	if _, err := WriterProgram(nil); err == nil {
		t.Error("empty payload accepted")
	}
	if _, err := WriterProgram([]byte{1, 2, 3}); err == nil {
		t.Error("unaligned payload accepted")
	}
}

func TestRetainerProgramDoesNotTouchSRAM(t *testing.T) {
	d := newDevice(t)
	prog, err := Assemble(RetainerProgram())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
	snap, err := d.PowerOn(25)
	if err != nil {
		t.Fatal(err)
	}
	reason, err := d.Run(1000)
	if err != nil {
		t.Fatal(err)
	}
	if reason != cpu.StopBusyWait {
		t.Fatalf("reason = %v", reason)
	}
	mem, _ := d.ReadSRAM()
	if !bytes.Equal(mem, snap) {
		t.Fatal("retainer modified the power-on state")
	}
}

func TestCamouflageProgramRuns(t *testing.T) {
	d := newDevice(t)
	prog, err := Assemble(CamouflageProgram())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
	if _, err := d.PowerOn(25); err != nil {
		t.Fatal(err)
	}
	reason, err := d.Run(5000)
	if err != nil {
		t.Fatal(err)
	}
	if reason != cpu.StopStepLimit {
		t.Fatalf("camouflage should run forever; got %v", reason)
	}
	// It must have published ticks into SRAM (functional device).
	mem, _ := d.ReadSRAM()
	if mem[0] == 0 && mem[1] == 0 && mem[2] == 0 && mem[3] == 0 {
		t.Error("camouflage never wrote its tick counter")
	}
}

func TestWorkloadProgramMatchesSoftwareLFSR(t *testing.T) {
	// The assembly LFSR must produce exactly the same stream as the Go
	// reference (internal/rng.LFSR32 seeded with 1).
	d := newDevice(t)
	src, err := WorkloadProgram(d.SRAM.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
	if _, err := d.PowerOn(25); err != nil {
		t.Fatal(err)
	}
	// Enough steps for at least one full SRAM sweep (7 instr per word).
	words := d.SRAM.Bytes() / 4
	if reason, err := d.Run(uint64(words*8 + 100)); err != nil || reason != cpu.StopStepLimit {
		t.Fatalf("reason=%v err=%v", reason, err)
	}
	mem, _ := d.ReadSRAM()
	ref := rng.NewLFSR32(1)
	for i := 0; i < 16; i++ {
		want := ref.Next()
		got := uint32(mem[4*i]) | uint32(mem[4*i+1])<<8 |
			uint32(mem[4*i+2])<<16 | uint32(mem[4*i+3])<<24
		if got != want {
			t.Fatalf("word %d = %#x, want %#x", i, got, want)
		}
	}
}

func TestWorkloadProgramValidation(t *testing.T) {
	if _, err := WorkloadProgram(0); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := WorkloadProgram(5); err == nil {
		t.Error("unaligned size accepted")
	}
}

func TestWriterProgramFitsInFlash(t *testing.T) {
	// A full 64 KB payload writer must fit in the MSP432's 256 KB flash.
	m, _ := device.ByName("MSP432P401")
	d, err := device.New(m, "full")
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, d.SRAM.Bytes())
	rng.NewSource(1).Bytes(payload)
	src, err := WriterProgram(payload)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Image) > m.FlashBytes {
		t.Fatalf("writer image %d bytes exceeds flash %d", len(prog.Image), m.FlashBytes)
	}
	if err := d.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
}

// writeWordsFmt is the fmt formatting writeWords reproduces by hand:
// one Fprintf of 0x%08X per little-endian word, eight to a line.
func writeWordsFmt(sb *strings.Builder, payload []byte) {
	for i := 0; i < len(payload); i += 32 {
		sb.WriteString("        .word ")
		for j := 0; j < 8 && i+4*j < len(payload); j++ {
			if j > 0 {
				sb.WriteString(", ")
			}
			off := i + 4*j
			w := uint32(payload[off]) | uint32(payload[off+1])<<8 |
				uint32(payload[off+2])<<16 | uint32(payload[off+3])<<24
			fmt.Fprintf(sb, "0x%08X", w)
		}
		sb.WriteByte('\n')
	}
}

// TestWriteWordsMatchesFmt holds the hand-formatted payload words to
// fmt's, byte for byte, at sizes with and without a partial last line,
// and requires it to grow the builder once.
func TestWriteWordsMatchesFmt(t *testing.T) {
	for _, size := range []int{4, 28, 32, 36, 1000, 65536} {
		payload := make([]byte, size)
		rng.NewSource(uint64(size)).Bytes(payload)
		// Words with leading zero nibbles and every hex digit.
		copy(payload, []byte{0x0f, 0, 0, 0})
		if size >= 8 {
			copy(payload[4:], []byte{0xef, 0xcd, 0xab, 0x89})
		}
		var got, want strings.Builder
		writeWords(&got, payload)
		writeWordsFmt(&want, payload)
		if got.String() != want.String() {
			t.Fatalf("%d bytes: writeWords differs from fmt:\n%q\nwant\n%q", size, got.String(), want.String())
		}
		if allocs := testing.AllocsPerRun(3, func() {
			var sb strings.Builder
			writeWords(&sb, payload)
		}); allocs != 1 {
			t.Fatalf("%d bytes: writeWords allocates %.0f times, want one growth", size, allocs)
		}
	}
}

func BenchmarkWriterProgramGeneration64KB(b *testing.B) {
	payload := make([]byte, 64<<10)
	rng.NewSource(1).Bytes(payload)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := WriterProgram(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// writer64KB returns the writer program for a fixed 64 KiB payload: the
// paper codec's full-capacity write on a 64 KiB carrier.
func writer64KB(tb testing.TB) string {
	tb.Helper()
	payload := make([]byte, 64<<10)
	rng.NewSource(0x64b).Bytes(payload)
	src, err := WriterProgram(payload)
	if err != nil {
		tb.Fatal(err)
	}
	return src
}

// TestWriterProgram64KBImage pins the assembled image of the 64 KiB
// writer program (SHA-256 recorded before the assembler's .word path
// stopped allocating per word), so the parser's number and symbol
// shortcuts cannot move a byte.
func TestWriterProgram64KBImage(t *testing.T) {
	p, err := Assemble(writer64KB(t))
	if err != nil {
		t.Fatal(err)
	}
	const want = "ae937b8821058e43dac6250e37a2e76ee53ae0f327462819b0ea23825fcd6ff5"
	sum := sha256.Sum256(p.Image)
	if got := hex.EncodeToString(sum[:]); len(p.Image) != 65592 || got != want {
		t.Fatalf("64 KiB writer image: %d bytes, SHA-256 %s; want 65592 bytes, %s", len(p.Image), got, want)
	}
}

// BenchmarkAssembleWriter64KB assembles the 64 KiB writer program, the
// assembler's share of a paper round trip.
func BenchmarkAssembleWriter64KB(b *testing.B) {
	src := writer64KB(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Assemble(src); err != nil {
			b.Fatal(err)
		}
	}
}
