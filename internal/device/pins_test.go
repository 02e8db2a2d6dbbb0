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

// TestDeviceBitPins pins a fresh device's silicon and its saved image
// across code changes. The literals were recorded before the device's
// Flash became a digital-only store; they may only be re-recorded on
// the parent of a change that moves them, with the reason in CHANGES.md.
//
// The body runs in a fresh copy of the test binary, for two reasons.
// gob numbers types process-wide in the order it first meets them, so
// once another test has encoded a different type (TestLoadV1Image's v1
// image), Save writes the same image with other type ids; in a fresh
// process Save's is the first gob encoding, as in the tools that write
// images. And the process-wide worker pool is sized on first use, so
// only a fresh process runs the mismatch field at the -cpu width.
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
		bias, image   string // image "" = bias plane only
	}{
		{"ATSAML11E16A", "pin-1", []Option{WithSRAMLimit(16 << 10)},
			"9733406ffa4cbda52b98e00d0429e0cd740f16bbb28e3c73a0439fabe74f8beb",
			"d4bac6211848889531275feeab4b591f440e2e6d17dd5684d6e1297370f36184"},
		{"MSP432P401", "pin-1", []Option{WithSRAMLimit(16 << 10)},
			"309fb53b366825cd2034cb56409b7eb3a4939ff9a29c108c4f89112f98036390",
			"d5b9204bb5c367a1adbaef75e4bacae0ac5eaa74b9e5c20b76ec88fd64d8b3b8"},
		{"LPC55S69JBD100", "pin-1", []Option{WithSRAMLimit(16 << 10)},
			"5ecc63081f6b665aecb4a9c6e368b7169d351ec7fb3a21cdde6f5d403f403753",
			"21a10c0af75bd2158b923650bf44a659a07bbccae3de4fecb33e73cd5edf591c"},
		{"BCM2837", "pin-1", []Option{WithSRAMLimit(16 << 10)},
			"5f6d26d0949eaa5575bb1090e7ffce9d99057c6c8b97a4a70b7c3e07fdfac23e",
			"c34e5acb111bbb28bf6de6d54ba9ec502bdf362be1526cebf489bcf631402bab"},
		{"MSP430G2553", "pin-1", []Option{WithSRAMLimit(16 << 10)},
			"71c4c9d279c16c1657d2cbe42b9338e3e682a2f589787da15a062d850d45da06",
			"4d7b592ba7f670fe69cc9ad3795156f84790d48a1be50f6af2d3cdf90525ff83"},
		{"MSP432P401", "pin-full", nil,
			"bc908263fd703a3f8283536b3882ab461a735a956e246faa9dfa0667a7544bd7",
			""},
	} {
		t.Run(tc.model+"/"+tc.serial, func(t *testing.T) {
			d := mustDevice(t, tc.model, tc.serial, tc.opts...)
			if got := biasPlaneSHA256(d); got != tc.bias {
				t.Errorf("bias plane sha256 %s, want %s", got, tc.bias)
			}
			if tc.image == "" {
				return
			}
			if d.Flash != nil {
				for _, p := range []*asm.Program{pinFirmware(3000, 7, 3), pinFirmware(700, 5, 1)} {
					if err := d.LoadProgram(p); err != nil {
						t.Fatal(err)
					}
				}
			}
			var img bytes.Buffer
			if err := d.Save(&img); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(img.Bytes())
			if got := hex.EncodeToString(sum[:]); got != tc.image {
				t.Errorf("image sha256 %s, want %s", got, tc.image)
			}
			d2, err := Load(bytes.NewReader(img.Bytes()))
			if err != nil {
				t.Fatal(err)
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
