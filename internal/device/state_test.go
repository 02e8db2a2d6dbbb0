package device

import (
	"bytes"
	"encoding/gob"
	"errors"
	"strings"
	"testing"

	"invisiblebits/internal/rng"
	"invisiblebits/internal/sram"
	"invisiblebits/internal/stats"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	d := mustDevice(t, "MSP432P401", "save1", WithSRAMLimit(4<<10))
	if _, err := d.PowerOn(25); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, d.SRAM.Bytes())
	rng.NewSource(1).Bytes(payload)
	if err := d.SRAM.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := d.StressBypassed(d.Model.Accelerated(), 10); err != nil {
		t.Fatal(err)
	}
	majBefore, err := d.SRAM.CaptureMajority(5, 25)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Model.Name != "MSP432P401" || d2.Serial != "save1" {
		t.Fatalf("identity lost: %s/%s", d2.Model.Name, d2.Serial)
	}
	if d2.SRAM.Bytes() != 4<<10 {
		t.Fatalf("SRAM size = %d", d2.SRAM.Bytes())
	}
	majAfter, err := d2.SRAM.CaptureMajority(5, 25)
	if err != nil {
		t.Fatal(err)
	}
	// The aging state survived: the decoded payload matches across the
	// save/load boundary (small majority-churn tolerance).
	if ber := stats.BitErrorRate(majBefore, majAfter); ber > 0.01 {
		t.Fatalf("aging state lost across save/load: ber=%v", ber)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a device image"))); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestRestoreStateRejectsForeignSnapshot(t *testing.T) {
	a := mustDevice(t, "MSP432P401", "s1", WithSRAMLimit(4<<10))
	b := mustDevice(t, "MSP432P401", "s2", WithSRAMLimit(4<<10))
	if err := b.SRAM.RestoreState(a.SRAM.StateSnapshot()); err == nil {
		t.Fatal("foreign snapshot accepted")
	}
	c := mustDevice(t, "MSP432P401", "s1", WithSRAMLimit(8<<10))
	if err := c.SRAM.RestoreState(a.SRAM.StateSnapshot()); err == nil {
		t.Fatal("geometry mismatch accepted")
	}
}

func TestSaveLoadPreservesDigitalContents(t *testing.T) {
	d := mustDevice(t, "ATSAML11E16A", "dig", WithSRAMLimit(4<<10))
	if _, err := d.PowerOn(25); err != nil {
		t.Fatal(err)
	}
	want := []byte{0xAB, 0xCD}
	if err := d.SRAM.WriteAt(10, want); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !d2.SRAM.Powered() {
		t.Fatal("powered flag lost")
	}
	got, err := d2.SRAM.Read()
	if err != nil {
		t.Fatal(err)
	}
	if got[10] != 0xAB || got[11] != 0xCD {
		t.Fatal("digital contents lost")
	}
}

// encodeImage gob-encodes a version-3 image of d that carries
// flashData in place of d's own Flash contents.
func encodeImage(t *testing.T, d *Device, flashData []byte) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(image{
		Version:   lastGobVersion,
		ModelName: d.Model.Name,
		Serial:    d.Serial,
		SRAMBytes: d.SRAM.Bytes(),
		SRAM:      d.SRAM.StateSnapshot(),
		FlashData: flashData,
	}); err != nil {
		t.Fatal(err)
	}
	return &buf
}

// A flashless model cannot hold Flash contents: loading such an image
// would drop the bytes, and a re-Save would silently lose them. Both
// the gob reader and the version-4 reader refuse it.
func TestLoadRejectsFlashOnFlashlessModel(t *testing.T) {
	d := mustDevice(t, "BCM2837", "flashless", WithSRAMLimit(1<<10))
	var v4 bytes.Buffer
	if err := d.Save(&v4); err != nil {
		t.Fatal(err)
	}
	for name, img := range map[string]*bytes.Buffer{
		"gob": encodeImage(t, d, []byte{1, 2, 3}),
		"v4":  bytes.NewBuffer(withV4Flash(t, v4.Bytes(), []byte{1, 2, 3})),
	} {
		_, err := Load(img)
		if err == nil {
			t.Fatalf("%s: BCM2837 image with 3 bytes of flash loaded", name)
		}
		if !strings.Contains(err.Error(), "BCM2837") {
			t.Errorf("%s: error %q does not name the model", name, err)
		}
	}
}

// Images without Flash contents load on every model; a model with
// Flash comes back with it erased.
func TestLoadWithoutFlashDataOnEveryModel(t *testing.T) {
	for _, m := range Catalog {
		for _, data := range [][]byte{nil, {}} {
			d, err := New(m, "no-flash-data", WithSRAMLimit(1<<10))
			if err != nil {
				t.Fatal(err)
			}
			d2, err := Load(encodeImage(t, d, data))
			if err != nil {
				t.Fatalf("%s, flash data %v: %v", m.Name, data, err)
			}
			if (d2.Flash == nil) != (m.FlashBytes == 0) {
				t.Fatalf("%s: flash present = %v, model has %d bytes", m.Name, d2.Flash != nil, m.FlashBytes)
			}
			if d2.Flash == nil {
				continue
			}
			got, err := d2.Flash.Read(0, d2.Flash.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, bytes.Repeat([]byte{0xFF}, m.FlashBytes)) {
				t.Fatalf("%s: loaded flash is not erased", m.Name)
			}
		}
	}
}

// A gob image whose pools do not all cover the array is refused: the
// missing cells would otherwise load with zero aging, a different
// device.
func TestLoadRejectsShortLegacyPools(t *testing.T) {
	d := mustDevice(t, "MSP430G2553", "short-pools")
	st := d.SRAM.StateSnapshot()
	st.S1Fast = st.S1Fast[:10]
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(image{
		Version:   lastGobVersion,
		ModelName: d.Model.Name,
		Serial:    d.Serial,
		SRAMBytes: d.SRAM.Bytes(),
		SRAM:      st,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); !errors.Is(err, sram.ErrStateMismatch) {
		t.Fatalf("image with a 10-cell S1Fast pool: %v, want ErrStateMismatch", err)
	}
}
