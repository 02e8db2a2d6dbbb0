package invisiblebits_test

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	ib "invisiblebits"
	"invisiblebits/internal/sram"
)

// The golden fixtures pin the full cross-version contract: a message
// hidden by today's encoder, saved as both an image-format-v1 and
// image-format-v2 device file, must keep decoding to the same plaintext
// in every future build. Unlike the statistical acceptance tests, these
// are byte-exact files checked into testdata/golden — if a change to the
// noise derivation, aging model, or image format breaks them, that is a
// compatibility break with devices already in the field and must be a
// deliberate, versioned decision (regenerate with IB_REGEN_GOLDEN=1).

const (
	goldenMessage  = "invisible bits golden fixture: meet at dawn"
	goldenPass     = "golden pre-shared secret"
	goldenModel    = "MSP432P401"
	goldenSerial   = "golden-0001"
	goldenSerialV3 = "golden-0003"
	goldenSRAM     = 4 << 10
)

func goldenDir() string { return filepath.Join("testdata", "golden") }

func goldenOptions() ib.Options {
	key := ib.KeyFromPassphrase(goldenPass)
	return ib.Options{Codec: ib.PaperCodec(), Key: &key}
}

// imageV1 mirrors the pre-ledger wire layout; gob matches struct fields
// by name, so encoding this reproduces a version-1 file byte-for-byte in
// structure.
type imageV1 struct {
	Version   int
	ModelName string
	Serial    string
	SRAMBytes int
	SRAM      sram.State
	FlashData []byte
}

// TestRegenGoldenImages hides the golden message in a fresh device and
// writes the v1 image, v2 image, and record to testdata/golden. Gated:
// run with IB_REGEN_GOLDEN=1 only when a format change is intentional.
func TestRegenGoldenImages(t *testing.T) {
	if os.Getenv("IB_REGEN_GOLDEN") == "" {
		t.Skip("set IB_REGEN_GOLDEN=1 to regenerate testdata/golden fixtures")
	}
	model, err := ib.Model(goldenModel)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := ib.NewDeviceSampled(model, goldenSerial, goldenSRAM)
	if err != nil {
		t.Fatal(err)
	}
	carrier := ib.NewCarrier(dev)
	rec, err := carrier.Hide([]byte(goldenMessage), goldenOptions())
	if err != nil {
		t.Fatal(err)
	}

	if err := os.MkdirAll(goldenDir(), 0o755); err != nil {
		t.Fatal(err)
	}
	var v2 bytes.Buffer
	if err := dev.Save(&v2); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(goldenDir(), "device-v2.ibdev"), v2.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	var flashData []byte
	if dev.Flash != nil {
		flashData, err = dev.Flash.Read(0, dev.Flash.Bytes())
		if err != nil {
			t.Fatal(err)
		}
	}
	var v1 bytes.Buffer
	if err := gob.NewEncoder(&v1).Encode(imageV1{
		Version:   1,
		ModelName: dev.Model.Name,
		Serial:    dev.Serial,
		SRAMBytes: dev.SRAM.Bytes(),
		SRAM:      dev.SRAM.StateSnapshot(),
		FlashData: flashData,
	}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(goldenDir(), "device-v1.ibdev"), v1.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	blob, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(goldenDir(), "record.json"), append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRegenGoldenV3Image writes the version-3 fixture: a fresh device
// (distinct serial, so a distinct fingerprint) encoded and saved by the
// current engine, exercising the ziggurat noise plane end to end — the
// image records NoiseGen and must replay it forever. Regenerating v3
// does NOT touch the v1/v2 fixtures: those pin the pre-versioning
// engine and are never rewritten.
func TestRegenGoldenV3Image(t *testing.T) {
	if os.Getenv("IB_REGEN_GOLDEN") == "" {
		t.Skip("set IB_REGEN_GOLDEN=1 to regenerate testdata/golden fixtures")
	}
	model, err := ib.Model(goldenModel)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := ib.NewDeviceSampled(model, goldenSerialV3, goldenSRAM)
	if err != nil {
		t.Fatal(err)
	}
	if got := dev.SRAM.NoiseGen(); got != sram.NoiseGenZiggurat {
		t.Fatalf("fresh device uses NoiseGen %d, want ziggurat", got)
	}
	rec, err := ib.NewCarrier(dev).Hide([]byte(goldenMessage), goldenOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(goldenDir(), 0o755); err != nil {
		t.Fatal(err)
	}
	var v3 bytes.Buffer
	if err := dev.Save(&v3); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(goldenDir(), "device-v3.ibdev"), v3.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	blob, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(goldenDir(), "record-v3.json"), append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
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
// while the v3 image records and restores the ziggurat plane.
func TestGoldenNoiseGenHonoured(t *testing.T) {
	for _, f := range []string{"device-v1.ibdev", "device-v2.ibdev"} {
		dev := loadGoldenDevice(t, f)
		if got := dev.SRAM.NoiseGen(); got != sram.NoiseGenBoxMuller {
			t.Errorf("%s loaded with NoiseGen %d, want Box–Muller (%d)",
				f, got, sram.NoiseGenBoxMuller)
		}
	}
	dev := loadGoldenDevice(t, "device-v3.ibdev")
	if got := dev.SRAM.NoiseGen(); got != sram.NoiseGenZiggurat {
		t.Errorf("device-v3.ibdev loaded with NoiseGen %d, want ziggurat (%d)",
			got, sram.NoiseGenZiggurat)
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
