package device

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"invisiblebits/internal/ioatomic"
	"invisiblebits/internal/sram"
)

// imageV1 mirrors the version-1 wire layout (no RefreshLog field). gob
// matches struct fields by name, so encoding this type produces exactly
// what a pre-ledger build would have written.
type imageV1 struct {
	Version   int
	ModelName string
	Serial    string
	SRAMBytes int
	SRAM      sram.State
	FlashData []byte
}

// imageBytes builds a real device image at the requested version:
// versions 1–3 in the gob layouts their readers expect, 4 by Save.
func imageBytes(t testing.TB, version int) []byte {
	t.Helper()
	d := mustDeviceTB(t, "MSP430G2553", "fuzz-seed")
	if _, err := d.PowerOn(25); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	var img any
	switch version {
	case 1:
		img = imageV1{
			Version:   1,
			ModelName: d.Model.Name,
			Serial:    d.Serial,
			SRAMBytes: d.SRAM.Bytes(),
			SRAM:      d.SRAM.StateSnapshot(),
		}
	case 2, 3:
		img = image{
			Version:   version,
			ModelName: d.Model.Name,
			Serial:    d.Serial,
			SRAMBytes: d.SRAM.Bytes(),
			SRAM:      d.SRAM.StateSnapshot(),
		}
	default:
		if err := d.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
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

// imageSeeds returns the seed corpus: genuine gob images (v1, v3), their
// truncations and a single-byte corruption, plain garbage, then the
// version-4 seeds. The gob shapes are checked in under
// testdata/fuzz/FuzzImageLoad as seed-00..06 and never rewritten; the
// version-4 seeds as v4-seed-NN (regenerate with IB_REGEN_FUZZ=1).
func imageSeeds(t testing.TB) [][]byte {
	v1 := imageBytes(t, 1)
	v3 := imageBytes(t, 3)
	flipped := append([]byte(nil), v3...)
	flipped[len(flipped)/3] ^= 0x40
	return append([][]byte{
		v1,
		v3,
		v3[:len(v3)/2],
		v3[:7],
		flipped,
		[]byte("not a device image"),
		{},
	}, v4Seeds(t)...)
}

// v4Seeds returns genuine version-4 images — a fresh powered device
// (one aging class) and a stressed, shelved and re-stressed one with
// firmware and a refresh event (three classes) — then the second's
// truncations and a flipped byte in its class table and in its index.
func v4Seeds(t testing.TB) [][]byte {
	fresh := imageBytes(t, 4)
	aged := agedImage(t)
	l := layoutV4(t, aged)
	table := append([]byte(nil), aged...)
	table[l.table+13] ^= 0x04
	index := append([]byte(nil), aged...)
	index[l.index+5] ^= 0x10
	return [][]byte{fresh, aged, aged[:len(aged)/2], aged[:5], table, index}
}

// FuzzImageLoad hammers the device-image loader with mutated gob
// streams and version-4 images. The contract: Load either returns a
// working device — whose image must survive a re-Save, byte for byte
// when it was a version-4 image — or an error. Never a panic,
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
		if bytes.HasPrefix(data, []byte(imageMagic)) &&
			!bytes.Equal(buf.Bytes(), data) && !bytes.Equal(ioatomic.Seal(buf.Bytes()), data) {
			t.Fatal("a version-4 image loaded but re-saved to other bytes")
		}
	})
}

// TestLoadV1Image pins backward compatibility outside the fuzzer: a
// version-1 stream (no RefreshLog) loads, reports an empty ledger, and
// reproduces the saved silicon.
func TestLoadV1Image(t *testing.T) {
	d, err := Load(bytes.NewReader(imageBytes(t, 1)))
	if err != nil {
		t.Fatalf("v1 image rejected: %v", err)
	}
	if d.Model.Name != "MSP430G2553" || d.Serial != "fuzz-seed" {
		t.Fatalf("identity lost: %s/%s", d.Model.Name, d.Serial)
	}
	if len(d.RefreshLog()) != 0 {
		t.Fatalf("v1 image produced %d ledger entries", len(d.RefreshLog()))
	}
}

// TestRegenFuzzCorpus rewrites the checked-in version-4 seeds from
// v4Seeds; the gob seeds (seed-00..06) stay as they were recorded.
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
