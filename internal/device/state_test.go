package device

import (
	"bytes"
	"strings"
	"testing"

	"invisiblebits/internal/rng"
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

// A flashless model cannot hold Flash contents: loading such an image
// would drop the bytes, and a re-Save would silently lose them.
func TestLoadRejectsFlashOnFlashlessModel(t *testing.T) {
	d := mustDevice(t, "BCM2837", "flashless", WithSRAMLimit(1<<10))
	var img bytes.Buffer
	if err := d.Save(&img); err != nil {
		t.Fatal(err)
	}
	_, err := Load(bytes.NewReader(withV4Flash(t, img.Bytes(), []byte{1, 2, 3})))
	if err == nil {
		t.Fatal("BCM2837 image with 3 bytes of flash loaded")
	}
	if !strings.Contains(err.Error(), "BCM2837") {
		t.Errorf("error %q does not name the model", err)
	}
}

// Images without Flash contents load on every model; a model with
// Flash comes back with it erased.
func TestLoadWithoutFlashDataOnEveryModel(t *testing.T) {
	for _, m := range Catalog {
		d, err := New(m, "no-flash-data", WithSRAMLimit(1<<10))
		if err != nil {
			t.Fatal(err)
		}
		var img bytes.Buffer
		if err := d.Save(&img); err != nil {
			t.Fatal(err)
		}
		d2, err := Load(&img)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
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
