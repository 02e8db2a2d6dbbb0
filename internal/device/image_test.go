package device

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/bits"
	"strings"
	"testing"

	"invisiblebits/internal/asm"
	"invisiblebits/internal/ioatomic"
)

// agedDevice is an MSP430G2553 with three aging classes — cells that
// held 1 through both soaks, 0 through both, and 0 then 1, with a shelf
// in between so one direction's equivalent time is stale (−1) — plus
// firmware that ends in bytes above 0x7F and a refresh event.
func agedDevice(t testing.TB) *Device {
	t.Helper()
	d := mustDeviceTB(t, "MSP430G2553", "fuzz-aged")
	if err := d.LoadProgram(&asm.Program{Origin: FlashBase, Image: []byte("firmware\x00\xad\x01\xde")}); err != nil {
		t.Fatal(err)
	}
	acc := d.Model.Accelerated()
	pattern := make([]byte, d.SRAM.Bytes())
	for i := len(pattern) / 2; i < len(pattern); i++ {
		pattern[i] = 0xFF
	}
	for step, quarter := range []byte{0x00, 0xFF} {
		if _, err := d.PowerOn(25); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(pattern)/4; i++ {
			pattern[i] = quarter
		}
		if err := d.SRAM.Write(pattern); err != nil {
			t.Fatal(err)
		}
		if err := d.StressBypassed(acc, 2.5); err != nil {
			t.Fatal(err)
		}
		if step == 0 {
			d.PowerOff(true)
			if err := d.Shelve(24); err != nil {
				t.Fatal(err)
			}
		}
	}
	d.RecordRefresh(RefreshEvent{ClockHours: 7.5, StressHours: 2.5, MarginBefore: 1.25, MarginAfter: 3.5})
	return d
}

func agedImage(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := agedDevice(t).Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// v4Layout holds the offsets of a version-4 image's fields.
type v4Layout struct {
	state, classes, table, index, flash, log int
	k                                        uint32
}

func layoutV4(t testing.TB, img []byte) v4Layout {
	t.Helper()
	if !bytes.HasPrefix(img, []byte(imageMagic)) {
		t.Fatal("not a version-4 image")
	}
	off := len(imageMagic) + 4
	for range 2 { // model, serial
		off += 4 + int(binary.LittleEndian.Uint32(img[off:]))
	}
	sramBytes := int(binary.LittleEndian.Uint32(img[off:]))
	l := v4Layout{state: off + 4}
	l.classes = l.state + 18 + sramBytes
	l.k = binary.LittleEndian.Uint32(img[l.classes:])
	l.table = l.classes + 4
	l.index = l.table + int(l.k)*40
	l.flash = l.index + sramBytes*bits.Len32(l.k-1)
	l.log = l.flash + 4 + int(binary.LittleEndian.Uint32(img[l.flash:]))
	return l
}

// withV4Flash returns img with its Flash field replaced by flash.
func withV4Flash(t testing.TB, img, flash []byte) []byte {
	l := layoutV4(t, img)
	out := append([]byte(nil), img[:l.flash]...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(flash)))
	out = append(out, flash...)
	return append(out, img[l.log:]...)
}

// A version-4 image holds the device's whole state, equivalent times
// included, in a handful of aging classes, and loads back to the same
// state and the same bytes.
func TestV4ImageCarriesWholeState(t *testing.T) {
	d := agedDevice(t)
	var img bytes.Buffer
	if err := d.Save(&img); err != nil {
		t.Fatal(err)
	}
	if l := layoutV4(t, img.Bytes()); l.k != 3 {
		t.Fatalf("aged device has %d aging classes, want 3", l.k)
	}
	stale := 0
	for i := 0; i < d.SRAM.Cells(); i++ {
		if t0, t1 := d.SRAM.EquivalentTimes(i); t0 < 0 || t1 < 0 {
			stale++
		}
	}
	if stale == 0 {
		t.Fatal("aged device has no stale equivalent time to carry")
	}
	d2, err := Load(bytes.NewReader(img.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := stateSHA256(d2), stateSHA256(d); got != want {
		t.Fatalf("loaded state %s, saved %s", got, want)
	}
	if d2.SRAM.Powered() != d.SRAM.Powered() || d2.SRAM.PowerOnCount() != d.SRAM.PowerOnCount() {
		t.Fatal("power state lost")
	}
	var again bytes.Buffer
	if err := d2.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), img.Bytes()) {
		t.Fatal("Load then Save changed the image bytes")
	}
}

// Every strict prefix of a version-4 image is ErrTruncatedImage, and
// none of them builds a device: the layout is checked against the
// payload first.
func TestV4ImagePrefixesAreTruncated(t *testing.T) {
	for _, img := range [][]byte{imageBytes(t, 4), agedImage(t)} {
		for n := 0; n < len(img); n++ {
			if _, err := Load(bytes.NewReader(img[:n])); !errors.Is(err, ErrTruncatedImage) {
				t.Fatalf("%d-byte prefix of a %d-byte image: %v, want ErrTruncatedImage", n, len(img), err)
			}
		}
	}
}

// Hostile version-4 images fail cleanly: every count is checked before
// anything is allocated for it, class indexes must lie below the class
// count, and only the canonical encoding of a state loads.
func TestV4ImageRejectsHostileImages(t *testing.T) {
	img := agedImage(t)
	l := layoutV4(t, img)
	u32 := func(off int, v uint32) func([]byte) []byte {
		return func(b []byte) []byte { binary.LittleEndian.PutUint32(b[off:], v); return b }
	}
	for _, tc := range []struct {
		name      string
		edit      func([]byte) []byte
		truncated bool
	}{
		{"version 5", u32(len(imageMagic), 5), false},
		{"serial longer than the image", u32(len(imageMagic)+4+4+len("MSP430G2553"), 1<<31), true},
		{"more SRAM than the model", u32(l.state-4, 1024), false},
		{"SRAM size with no geometry", u32(l.state-4, 9), false},
		{"foreign seed", func(b []byte) []byte { b[l.state] ^= 1; return b }, false},
		{"unknown flag", func(b []byte) []byte { b[l.state+8] |= 0x04; return b }, false},
		{"powered and remanent", func(b []byte) []byte { b[l.state+8] = 3; return b }, false},
		{"noise generation 0", func(b []byte) []byte { b[l.state+17] = 0; return b }, false},
		{"noise generation 3", func(b []byte) []byte { b[l.state+17] = 3; return b }, false},
		{"no aging class", u32(l.classes, 0), false},
		{"more classes than cells", u32(l.classes, 4097), false},
		{"class count beyond the image", u32(l.classes, 4096), true},
		{"class index at the class count", func(b []byte) []byte { b[l.index] |= 0x03; return b }, false},
		{"classes out of first-use order", func(b []byte) []byte { b[l.index] = b[l.index]&^0x03 | 0x01; return b }, false},
		{"repeated class", func(b []byte) []byte { copy(b[l.table+40:l.table+80], b[l.table:l.table+40]); return b }, false},
		{"unused class", func(b []byte) []byte {
			out := append([]byte(nil), b[:l.index]...)
			binary.LittleEndian.PutUint32(out[l.classes:], 4)
			extra := append([]byte(nil), b[l.table:l.table+40]...)
			extra[0] ^= 0xFF
			out = append(out, extra...)
			return append(out, b[l.index:]...)
		}, false},
		{"flash longer than the model", func(b []byte) []byte { return withV4Flash(t, b, bytes.Repeat([]byte{0}, 16<<10+1)) }, false},
		{"flash ending in erased bytes", func(b []byte) []byte { return withV4Flash(t, b, []byte{0, 0xFF}) }, false},
		{"refresh count beyond the image", u32(l.log, 1<<30), true},
		{"trailing byte", func(b []byte) []byte { return append(b, 0) }, false},
		{"broken seal footer", func(b []byte) []byte { s := ioatomic.Seal(b); s[len(b)] ^= 1; return s }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Load(bytes.NewReader(tc.edit(append([]byte(nil), img...))))
			if err == nil {
				t.Fatal("hostile image loaded")
			}
			if errors.Is(err, ErrTruncatedImage) != tc.truncated {
				t.Fatalf("error %v: truncated = %v, want %v", err, !tc.truncated, tc.truncated)
			}
		})
	}
}

// Load accepts the bytes SaveFile writes, seal footer included, and
// verifies the footer; LoadFile strips it first and accepts no second.
func TestLoadAcceptsSealedV4Stream(t *testing.T) {
	img := agedImage(t)
	d, err := Load(bytes.NewReader(ioatomic.Seal(img)))
	if err != nil {
		t.Fatalf("sealed stream rejected: %v", err)
	}
	var again bytes.Buffer
	if err := d.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), img) {
		t.Fatal("sealed stream loaded to another state")
	}
	if _, err := load(ioatomic.Seal(img), false); err == nil || !strings.Contains(err.Error(), "after its end") {
		t.Fatalf("doubly sealed file: %v", err)
	}
}
