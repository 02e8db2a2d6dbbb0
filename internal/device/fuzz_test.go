package device

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"invisiblebits/internal/ioatomic"
	"invisiblebits/internal/sram"
)

// freshImage is the image of a fresh, powered MSP430G2553.
func freshImage(t testing.TB) []byte {
	t.Helper()
	d := mustDeviceTB(t, "MSP430G2553", "fuzz-seed")
	if _, err := d.PowerOn(25); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// retiredImage is the gob layout of device image versions 1–3 (version
// 1 had no RefreshLog). No build writes it any more and Load refuses
// it: the tests keep it only as hostile input.
type retiredImage struct {
	Version    int
	ModelName  string
	Serial     string
	SRAMBytes  int
	SRAM       sram.State
	FlashData  []byte
	RefreshLog []RefreshEvent
}

// retiredImageBytes encodes a fresh, powered MSP430G2553 in the gob
// layout of image version v (1–3).
func retiredImageBytes(t testing.TB, v int) []byte {
	t.Helper()
	d := mustDeviceTB(t, "MSP430G2553", "fuzz-seed")
	if _, err := d.PowerOn(25); err != nil {
		t.Fatal(err)
	}
	img := retiredImage{
		Version:   v,
		ModelName: d.Model.Name,
		Serial:    d.Serial,
		SRAMBytes: d.SRAM.Bytes(),
		SRAM:      d.SRAM.StateSnapshot(),
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(img); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func mustDeviceTB(t testing.TB, model, serial string, opts ...Option) *Device {
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

// imageSeeds returns the seed corpus: plain garbage, gob images in the
// retired version 1–3 layouts, then the version-4 seeds. The garbage is
// checked in under testdata/fuzz/FuzzImageLoad as seed-05 and seed-06
// and never rewritten; the version-4 seeds as v4-seed-NN (regenerate
// with IB_REGEN_FUZZ=1). The gob images are built here, not checked in.
func imageSeeds(t testing.TB) [][]byte {
	return append([][]byte{
		[]byte("not a device image"),
		{},
		retiredImageBytes(t, 1),
		retiredImageBytes(t, 2),
		retiredImageBytes(t, 3),
	}, v4Seeds(t)...)
}

// v4Seeds returns genuine version-4 images — a fresh powered device
// (one aging class) and a stressed, shelved and re-stressed one with
// firmware and a refresh event (three classes) — then the second's
// truncations and a flipped byte in its class table and in its index.
func v4Seeds(t testing.TB) [][]byte {
	fresh := freshImage(t)
	aged := agedImage(t)
	l := layoutV4(t, aged)
	table := append([]byte(nil), aged...)
	table[l.table+13] ^= 0x04
	index := append([]byte(nil), aged...)
	index[l.index+5] ^= 0x10
	return [][]byte{fresh, aged, aged[:len(aged)/2], aged[:5], table, index}
}

// FuzzImageLoad hammers the device-image loader with mutated version-4
// images. The contract: Load either returns a working device — whose
// image re-Saves to the same bytes, bare or under its seal footer — or
// an error. Never a panic,
// regardless of what the bytes claim about version, geometry, class
// counts or flash size.
func FuzzImageLoad(f *testing.F) {
	for _, seed := range imageSeeds(f) {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A load that succeeds must hand back a coherent device.
		if d.SRAM == nil || d.SRAM.Bytes() <= 0 {
			t.Fatal("Load returned a device with no SRAM")
		}
		var buf bytes.Buffer
		if err := d.Save(&buf); err != nil {
			t.Fatalf("re-save of loaded image failed: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data) && !bytes.Equal(ioatomic.Seal(buf.Bytes()), data) {
			t.Fatal("a version-4 image loaded but re-saved to other bytes")
		}
	})
}

// TestLoadRefusesRetiredImages: Load reads version 4 only (DESIGN §5h,
// "Compatibility promise"). A gob image in a version 1–3 layout is
// refused as not a version-4 image, not taken for a truncated one; a
// payload cut inside the magic, the empty one included, is
// ErrTruncatedImage.
func TestLoadRefusesRetiredImages(t *testing.T) {
	for v := 1; v <= 3; v++ {
		t.Run(fmt.Sprintf("gob v%d", v), func(t *testing.T) {
			_, err := Load(bytes.NewReader(retiredImageBytes(t, v)))
			if err == nil || errors.Is(err, ErrTruncatedImage) || !strings.Contains(err.Error(), "not a version-4 device image") {
				t.Fatalf("version-%d gob image: %v, want a refusal as not a version-4 image", v, err)
			}
		})
	}
	img := freshImage(t)
	for _, n := range []int{0, 5} {
		t.Run(fmt.Sprintf("cut at %d bytes", n), func(t *testing.T) {
			if _, err := Load(bytes.NewReader(img[:n])); !errors.Is(err, ErrTruncatedImage) {
				t.Fatalf("%d bytes of the magic: %v, want ErrTruncatedImage", n, err)
			}
		})
	}
}

// TestRegenFuzzCorpus rewrites the checked-in version-4 seeds from
// v4Seeds; the garbage seeds (seed-05, seed-06) stay as they were
// recorded.
// Gated so normal runs never touch testdata; run with IB_REGEN_FUZZ=1
// after changing the image format or seed set.
func TestRegenFuzzCorpus(t *testing.T) {
	if os.Getenv("IB_REGEN_FUZZ") == "" {
		t.Skip("set IB_REGEN_FUZZ=1 to regenerate testdata/fuzz seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzImageLoad")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, seed := range v4Seeds(t) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
		name := filepath.Join(dir, fmt.Sprintf("v4-seed-%02d", i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
