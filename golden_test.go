package invisiblebits_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"

	ib "invisiblebits"
	"invisiblebits/internal/sram"
)

// The golden fixtures pin the full cross-version contract: a message
// hidden by the encoder, saved in every device image format (v1 and v2
// of one device, v3 and v4 of two more), must keep decoding to the same
// plaintext in every future build. Unlike the statistical acceptance
// tests, these are byte-exact files checked into testdata/golden — if a
// change to the noise derivation, aging model, or image format breaks
// them, that is a compatibility break with devices already in the field
// and must be a deliberate, versioned decision.
//
// device-v1.ibdev, device-v2.ibdev and record.json are frozen: they
// were written by the pre-versioning engine, whose Box–Muller noise
// plane no build encodes with any more, so nothing regenerates them.
// The gated writers (IB_REGEN_GOLDEN=1) regenerate only the v3 fixture
// (device-v3.ibdev, record-v3.json) and the v4 fixture
// (device-v4.ibdev, record-v4.json).

const (
	goldenMessage  = "invisible bits golden fixture: meet at dawn"
	goldenPass     = "golden pre-shared secret"
	goldenModel    = "MSP432P401"
	goldenSerialV3 = "golden-0003"
	goldenSerialV4 = "golden-0004"
	goldenSRAM     = 4 << 10
)

func goldenDir() string { return filepath.Join("testdata", "golden") }

func goldenOptions() ib.Options {
	key := ib.KeyFromPassphrase(goldenPass)
	return ib.Options{Codec: ib.PaperCodec(), Key: &key}
}

// imageV3 mirrors the gob layout of versions 2 and 3, which added the
// refresh ledger; gob matches struct fields by name.
type imageV3 struct {
	Version    int
	ModelName  string
	Serial     string
	SRAMBytes  int
	SRAM       sram.State
	FlashData  []byte
	RefreshLog []struct{ ClockHours, StressHours, MarginBefore, MarginAfter float64 }
}

// gobImageV3 writes dev in the version-3 gob layout.
func gobImageV3(t *testing.T, dev *ib.Device) []byte {
	t.Helper()
	var flashData []byte
	if dev.Flash != nil {
		var err error
		if flashData, err = dev.Flash.Read(0, dev.Flash.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	img := imageV3{
		Version:   3,
		ModelName: dev.Model.Name,
		Serial:    dev.Serial,
		SRAMBytes: dev.SRAM.Bytes(),
		SRAM:      dev.SRAM.StateSnapshot(),
		FlashData: flashData,
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(img); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// goldenV4ImageSHA256 pins the bytes of device-v4.ibdev, which Save
// writes for the golden-0004 device in any process.
const goldenV4ImageSHA256 = "8d3e1495ba4fe95b53b01dd93840f8cd1dca56277ce17446be845e760477a50b"

// hideGolden hides the golden message in a fresh sample of the golden
// model with the given serial.
func hideGolden(t *testing.T, serial string) (*ib.Device, *ib.Record) {
	t.Helper()
	model, err := ib.Model(goldenModel)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := ib.NewDeviceSampled(model, serial, goldenSRAM)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := ib.NewCarrier(dev).Hide([]byte(goldenMessage), goldenOptions())
	if err != nil {
		t.Fatal(err)
	}
	return dev, rec
}

func writeGolden(t *testing.T, name string, data []byte) {
	t.Helper()
	if err := os.MkdirAll(goldenDir(), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(goldenDir(), name), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func writeGoldenRecord(t *testing.T, name string, rec *ib.Record) {
	t.Helper()
	blob, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	writeGolden(t, name, append(blob, '\n'))
}

// TestRegenGoldenV3Image writes the version-3 fixture: a fresh device
// (distinct serial, so a distinct fingerprint) encoded by the current
// engine and saved in the version-3 gob layout, exercising the ziggurat
// noise plane end to end — the image records NoiseGen and must replay
// it forever. Regenerating v3 does NOT touch the v1/v2 fixtures: those
// pin the pre-versioning engine and are never rewritten.
func TestRegenGoldenV3Image(t *testing.T) {
	if os.Getenv("IB_REGEN_GOLDEN") == "" {
		t.Skip("set IB_REGEN_GOLDEN=1 to regenerate testdata/golden fixtures")
	}
	dev, rec := hideGolden(t, goldenSerialV3)
	if got := dev.SRAM.NoiseGen(); got != sram.NoiseGenZiggurat {
		t.Fatalf("fresh device uses NoiseGen %d, want ziggurat", got)
	}
	writeGolden(t, "device-v3.ibdev", gobImageV3(t, dev))
	writeGoldenRecord(t, "record-v3.json", rec)
}

// TestRegenGoldenV4Image writes the version-4 fixture, as Save writes
// it, for a third device. It touches no other fixture; update
// goldenV4ImageSHA256 with the new file's SHA-256.
func TestRegenGoldenV4Image(t *testing.T) {
	if os.Getenv("IB_REGEN_GOLDEN") == "" {
		t.Skip("set IB_REGEN_GOLDEN=1 to regenerate testdata/golden fixtures")
	}
	dev, rec := hideGolden(t, goldenSerialV4)
	var v4 bytes.Buffer
	if err := ib.SaveDevice(dev, &v4); err != nil {
		t.Fatal(err)
	}
	writeGolden(t, "device-v4.ibdev", v4.Bytes())
	writeGoldenRecord(t, "record-v4.json", rec)
	sum := sha256.Sum256(v4.Bytes())
	t.Logf("device-v4.ibdev sha256 %x", sum)
}

// decodeGolden loads the named image and reveals the golden record.
func decodeGolden(t *testing.T, imageFile string) []byte {
	return decodeGoldenRecord(t, imageFile, "record.json")
}

func decodeGoldenRecord(t *testing.T, imageFile, recordFile string) []byte {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join(goldenDir(), recordFile))
	if err != nil {
		t.Fatal(err)
	}
	var rec ib.Record
	if err := json.Unmarshal(blob, &rec); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(filepath.Join(goldenDir(), imageFile))
	if err != nil {
		t.Fatal(err)
	}
	dev, err := ib.LoadDevice(bytes.NewReader(img))
	if err != nil {
		t.Fatal(err)
	}
	msg, err := ib.NewCarrier(dev).Reveal(&rec, goldenOptions())
	if err != nil {
		t.Fatalf("%s: reveal: %v", imageFile, err)
	}
	return msg
}

// loadGoldenDevice loads a checked-in image for metadata assertions.
func loadGoldenDevice(t *testing.T, imageFile string) *ib.Device {
	t.Helper()
	img, err := os.ReadFile(filepath.Join(goldenDir(), imageFile))
	if err != nil {
		t.Fatal(err)
	}
	dev, err := ib.LoadDevice(bytes.NewReader(img))
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

// TestGoldenImagesDecode: both checked-in image versions must decode to
// the exact golden plaintext.
func TestGoldenImagesDecode(t *testing.T) {
	v1 := decodeGolden(t, "device-v1.ibdev")
	v2 := decodeGolden(t, "device-v2.ibdev")
	if string(v1) != goldenMessage {
		t.Errorf("v1 image decoded %q, want %q", v1, goldenMessage)
	}
	if string(v2) != goldenMessage {
		t.Errorf("v2 image decoded %q, want %q", v2, goldenMessage)
	}
	if !bytes.Equal(v1, v2) {
		t.Error("v1 and v2 images decode to different messages")
	}
}

// TestGoldenNoiseGenHonoured: pre-versioning images must load as
// Box–Muller devices (their captures were recorded under v1 noise),
// while the v3 and v4 images record and restore the ziggurat plane.
func TestGoldenNoiseGenHonoured(t *testing.T) {
	for _, f := range []string{"device-v1.ibdev", "device-v2.ibdev"} {
		dev := loadGoldenDevice(t, f)
		if got := dev.SRAM.NoiseGen(); got != sram.NoiseGenBoxMuller {
			t.Errorf("%s loaded with NoiseGen %d, want Box–Muller (%d)",
				f, got, sram.NoiseGenBoxMuller)
		}
	}
	for _, f := range []string{"device-v3.ibdev", "device-v4.ibdev"} {
		dev := loadGoldenDevice(t, f)
		if got := dev.SRAM.NoiseGen(); got != sram.NoiseGenZiggurat {
			t.Errorf("%s loaded with NoiseGen %d, want ziggurat (%d)",
				f, got, sram.NoiseGenZiggurat)
		}
	}
}

// TestGoldenV3ImageDecodes: the v3 fixture (encoded and captured
// entirely under the ziggurat plane) must decode to the golden
// plaintext.
func TestGoldenV3ImageDecodes(t *testing.T) {
	msg := decodeGoldenRecord(t, "device-v3.ibdev", "record-v3.json")
	if string(msg) != goldenMessage {
		t.Errorf("v3 image decoded %q, want %q", msg, goldenMessage)
	}
}

// TestGoldenV4ImageDecodes: the v4 fixture must decode to the golden
// plaintext.
func TestGoldenV4ImageDecodes(t *testing.T) {
	msg := decodeGoldenRecord(t, "device-v4.ibdev", "record-v4.json")
	if string(msg) != goldenMessage {
		t.Errorf("v4 image decoded %q, want %q", msg, goldenMessage)
	}
}

// TestGoldenV4ImageBytes pins the v4 fixture's bytes, and requires Save
// to write exactly them for the same device in this process even after
// gob has encoded another type first. Gob numbers types process-wide in
// the order it meets them, so a gob image's bytes depended on what the
// process had encoded before; the v4 layout uses no gob.
func TestGoldenV4ImageBytes(t *testing.T) {
	file, err := os.ReadFile(filepath.Join(goldenDir(), "device-v4.ibdev"))
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(file); hex.EncodeToString(sum[:]) != goldenV4ImageSHA256 {
		t.Fatalf("device-v4.ibdev sha256 %x, want %s", sum, goldenV4ImageSHA256)
	}
	if err := gob.NewEncoder(io.Discard).Encode(struct {
		A int
		B []string
	}{7, []string{"another type"}}); err != nil {
		t.Fatal(err)
	}
	dev, _ := hideGolden(t, goldenSerialV4)
	var saved bytes.Buffer
	if err := ib.SaveDevice(dev, &saved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved.Bytes(), file) {
		sum := sha256.Sum256(saved.Bytes())
		t.Fatalf("Save wrote sha256 %x, want the pinned device-v4.ibdev", sum)
	}
}
