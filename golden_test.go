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
)

// The golden fixture pins the image contract: a message hidden by the
// encoder and saved as a version-4 device image must keep decoding to
// the same plaintext in every future build, and Save must keep writing
// the same bytes for the same device. Unlike the statistical acceptance
// tests, these are byte-exact files checked into testdata/golden — if a
// change to the noise derivation, aging model, or image format breaks
// them, that is a compatibility break with devices already in the field
// and must be a deliberate, versioned decision. The gated writer
// (IB_REGEN_GOLDEN=1) regenerates device-v4.ibdev and record-v4.json.

const (
	goldenMessage  = "invisible bits golden fixture: meet at dawn"
	goldenPass     = "golden pre-shared secret"
	goldenModel    = "MSP432P401"
	goldenSerialV4 = "golden-0004"
	goldenSRAM     = 4 << 10
)

func goldenDir() string { return filepath.Join("testdata", "golden") }

func goldenOptions() ib.Options {
	key := ib.KeyFromPassphrase(goldenPass)
	return ib.Options{Codec: ib.PaperCodec(), Key: &key}
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

// TestRegenGoldenV4Image writes the version-4 fixture, as Save writes
// it. Update goldenV4ImageSHA256 with the new file's SHA-256.
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

// decodeGoldenRecord loads the named image and reveals the named record.
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
