package device

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"invisiblebits/internal/ioatomic"
)

// TestSaveFileSealedRoundTrip: SaveFile writes a sealed image, LoadFile
// verifies it, and one flipped byte at rest surfaces as ErrCorruptImage
// instead of a silently wrong device.
func TestSaveFileSealedRoundTrip(t *testing.T) {
	d := mustDevice(t, "MSP430G2553", "seal-1", WithSRAMLimit(1<<10))
	path := filepath.Join(t.TempDir(), "dev.img")
	if err := d.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	// The footer is present and verifies.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, sealed, err := ioatomic.Unseal(raw); err != nil || !sealed {
		t.Fatalf("image not sealed: sealed=%v err=%v", sealed, err)
	}

	d2, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Model.Name != d.Model.Name || d2.Serial != d.Serial {
		t.Fatalf("identity lost: %s/%s", d2.Model.Name, d2.Serial)
	}

	// Rot a payload byte: the seal must catch it.
	raw[len(raw)/3] ^= 0x20
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); !errors.Is(err, ErrCorruptImage) {
		t.Fatalf("rotted image load = %v, want ErrCorruptImage", err)
	}
}

// TestLoadFilePreFooterCompat: a bare version-4 stream, as Save writes
// it without the seal footer, still loads from a file — the footer is
// optional on read, mandatory only on SaveFile's writes.
func TestLoadFilePreFooterCompat(t *testing.T) {
	d := mustDevice(t, "MSP430G2553", "legacy-1", WithSRAMLimit(1<<10))
	path := filepath.Join(t.TempDir(), "legacy.img")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Save(f); err != nil { // bare stream, no footer
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := LoadFile(path)
	if err != nil {
		t.Fatalf("pre-footer image rejected: %v", err)
	}
	if d2.Model.Name != d.Model.Name || d2.Serial != d.Serial {
		t.Fatalf("identity lost: %s/%s", d2.Model.Name, d2.Serial)
	}
}
