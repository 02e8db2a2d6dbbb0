package device

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"testing"

	"invisiblebits/internal/asm"
)

// biasPlaneSHA256 hashes every cell's decision variable as the
// little-endian bits of its float64 value.
func biasPlaneSHA256(d *Device) string {
	h := sha256.New()
	var b [8]byte
	for i := 0; i < d.SRAM.Cells(); i++ {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(d.SRAM.Bias(i)))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// stateSHA256 hashes a device's decoded state, whatever image format
// carried it: the data plane, then each of the six pools (s0Perm,
// s0Fast, s0Slow, s1Perm, s1Fast, s1Slow) over every cell as float32
// bits, each equivalent stress time (t0, then t1) over every cell as
// float64 bits, PowerOns and NoiseGen as uint64, the Flash bytes, and
// each refresh event's four fields as float64 bits, all little-endian.
func stateSHA256(d *Device) string {
	h := sha256.New()
	st := d.SRAM.StateSnapshot()
	h.Write(st.Data)
	var b [8]byte
	for _, pool := range [][]float32{st.S0Perm, st.S0Fast, st.S0Slow, st.S1Perm, st.S1Fast, st.S1Slow} {
		for _, v := range pool {
			binary.LittleEndian.PutUint32(b[:4], math.Float32bits(v))
			h.Write(b[:4])
		}
	}
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for dir := 0; dir < 2; dir++ {
		for i := 0; i < d.SRAM.Cells(); i++ {
			t0, t1 := d.SRAM.EquivalentTimes(i)
			put(math.Float64bits([2]float64{t0, t1}[dir]))
		}
	}
	put(st.PowerOns)
	put(uint64(st.NoiseGen))
	if d.Flash != nil {
		fl, err := d.Flash.Read(0, d.Flash.Bytes())
		if err != nil {
			panic(err)
		}
		h.Write(fl)
	}
	for _, ev := range d.RefreshLog() {
		for _, v := range []float64{ev.ClockHours, ev.StressHours, ev.MarginBefore, ev.MarginAfter} {
			put(math.Float64bits(v))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// pinFirmware is the firmware the image pins flash: two loads of
// different lengths, so the second erases and rewrites part of what the
// first left behind.
func pinFirmware(n int, mul, add byte) *asm.Program {
	img := make([]byte, n)
	for i := range img {
		img[i] = byte(i)*mul + add
	}
	return &asm.Program{Origin: FlashBase, Image: img}
}

// bitPinsChild marks the fresh process TestDeviceBitPins runs its body
// in.
const bitPinsChild = "DEVICE_BIT_PINS_CHILD"

// TestDeviceBitPins pins a fresh device's silicon and the state its
// image carries across code changes. The bias literals were recorded
// before the device's Flash became a digital-only store, the state
// literals from the live devices before image version 4; they may only
// be re-recorded on the parent of a change that moves them, with the
// reason in CHANGES.md. The state pin holds for the device and for
// Load(Save(d)), so no image format change can move it.
//
// The body runs in a fresh copy of the test binary: the process-wide
// worker pool is sized on first use, so only a fresh process runs the
// mismatch field at the -cpu width.
func TestDeviceBitPins(t *testing.T) {
	if os.Getenv(bitPinsChild) == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestDeviceBitPins$", "-test.count=1", "-test.v",
			fmt.Sprintf("-test.cpu=%d", runtime.GOMAXPROCS(0)))
		cmd.Env = append(os.Environ(), bitPinsChild+"=1")
		out, err := cmd.CombinedOutput()
		if err != nil || !bytes.Contains(out, []byte("--- PASS: TestDeviceBitPins")) {
			t.Fatalf("pins in a fresh process: %v\n%s", err, out)
		}
		return
	}
	for _, tc := range []struct {
		model, serial string
		opts          []Option
		bias, state   string // state "" = bias plane only
	}{
		{"ATSAML11E16A", "pin-1", []Option{WithSRAMLimit(16 << 10)},
			"9733406ffa4cbda52b98e00d0429e0cd740f16bbb28e3c73a0439fabe74f8beb",
			"d9725eb03c70fc62901ff6a0bb63332fd5863e65a845667406cb5b33391a2a5a"},
		{"MSP432P401", "pin-1", []Option{WithSRAMLimit(16 << 10)},
			"309fb53b366825cd2034cb56409b7eb3a4939ff9a29c108c4f89112f98036390",
			"4177e6bd9bdf11b9a134a80b0ca4dbcb424bc4db5fd82bf37f12a2e5c17f4786"},
		{"LPC55S69JBD100", "pin-1", []Option{WithSRAMLimit(16 << 10)},
			"5ecc63081f6b665aecb4a9c6e368b7169d351ec7fb3a21cdde6f5d403f403753",
			"89c50d5a886ca9e31c0a3df1d1df07d27d5b374dcc1d137ee237ea25e7e16e26"},
		{"BCM2837", "pin-1", []Option{WithSRAMLimit(16 << 10)},
			"5f6d26d0949eaa5575bb1090e7ffce9d99057c6c8b97a4a70b7c3e07fdfac23e",
			"cf007b90a4933358abc174585fa55dd5968345aaacb8e34b2a3e525aee3d2d63"},
		{"MSP430G2553", "pin-1", []Option{WithSRAMLimit(16 << 10)},
			"71c4c9d279c16c1657d2cbe42b9338e3e682a2f589787da15a062d850d45da06",
			"032153370674e626dd05d771a2f61d0316b944e905a458ea698327a0d1e52f2a"},
		{"MSP432P401", "pin-full", nil,
			"bc908263fd703a3f8283536b3882ab461a735a956e246faa9dfa0667a7544bd7",
			""},
	} {
		t.Run(tc.model+"/"+tc.serial, func(t *testing.T) {
			d := mustDevice(t, tc.model, tc.serial, tc.opts...)
			if got := biasPlaneSHA256(d); got != tc.bias {
				t.Errorf("bias plane sha256 %s, want %s", got, tc.bias)
			}
			if tc.state == "" {
				return
			}
			if d.Flash != nil {
				for _, p := range []*asm.Program{pinFirmware(3000, 7, 3), pinFirmware(700, 5, 1)} {
					if err := d.LoadProgram(p); err != nil {
						t.Fatal(err)
					}
				}
			}
			if got := stateSHA256(d); got != tc.state {
				t.Errorf("state sha256 %s, want %s", got, tc.state)
			}
			var img bytes.Buffer
			if err := d.Save(&img); err != nil {
				t.Fatal(err)
			}
			d2, err := Load(bytes.NewReader(img.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if got := stateSHA256(d2); got != tc.state {
				t.Errorf("loaded state sha256 %s, want %s", got, tc.state)
			}
			var again bytes.Buffer
			if err := d2.Save(&again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), img.Bytes()) {
				t.Error("Load then Save changed the image bytes")
			}
		})
	}
}
