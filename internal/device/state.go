package device

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"

	"invisiblebits/internal/ioatomic"
	"invisiblebits/internal/sram"
	"invisiblebits/internal/storage"
)

// ErrTruncatedImage marks a device image whose byte stream ended before
// the serialized state was complete — the signature of a torn write or
// an interrupted copy. Check with errors.Is; a truncated image is not a
// version problem and not corruption of a whole stream, it is simply
// *missing its tail*, and callers (campaign resume in particular) treat
// it as "this checkpoint never durably existed".
var ErrTruncatedImage = errors.New("device: image truncated")

// ErrCorruptImage marks a device image file whose sha256 seal footer no
// longer matches its contents — the bytes changed at rest. Unlike
// ErrTruncatedImage (a clean missing tail) this is positive evidence of
// corruption; callers must treat the whole file as untrustworthy. Check
// with errors.Is; it also matches ioatomic.ErrSealMismatch.
var ErrCorruptImage = fmt.Errorf("device: image corrupt: %w", ioatomic.ErrSealMismatch)

// imageVersion guards the on-disk format. Version 2 added the refresh
// maintenance ledger; version 3 records the SRAM noise-plane version
// (sram.State.NoiseGen). Older images still load: a missing NoiseGen
// decodes as zero, which RestoreState maps to Box–Muller — the only
// sampler that existed when those images were written — so v1/v2
// archives keep replaying bit-identical captures under the v2 engine.
const imageVersion = 3

// image is the gob-serialized form of a device: enough to reconstruct
// the silicon (model + serial regenerate the fingerprint) plus the
// mutable aging/digital state. This is what lets the cmd tools hand a
// simulated device from the encoding party to the receiving party as a
// single file.
type image struct {
	Version   int
	ModelName string
	Serial    string
	SRAMBytes int // instantiated size (may be a sample of the model size)
	SRAM      sram.State
	// FlashData is the digital Flash contents (the firmware travels with
	// the chip). A device's Flash has no analog state to carry — the
	// steganographic channel under study is the SRAM.
	FlashData []byte
	// RefreshLog is the maintenance ledger (since version 2). Absent in
	// version-1 images.
	RefreshLog []RefreshEvent
}

// Save serializes the device to w. The CPU is not part of the image —
// firmware is reloaded by whoever receives the device, exactly as in the
// paper's workflow.
func (d *Device) Save(w io.Writer) error {
	img := image{
		Version:    imageVersion,
		ModelName:  d.Model.Name,
		Serial:     d.Serial,
		SRAMBytes:  d.SRAM.Bytes(),
		SRAM:       d.SRAM.StateSnapshot(),
		RefreshLog: d.RefreshLog(),
	}
	if d.Flash != nil {
		data, err := d.Flash.Read(0, d.Flash.Bytes())
		if err != nil {
			return fmt.Errorf("device: save flash: %w", err)
		}
		img.FlashData = data
	}
	if err := gob.NewEncoder(w).Encode(img); err != nil {
		return fmt.Errorf("device: save: %w", err)
	}
	return nil
}

// SaveFile writes the device image to path atomically and sealed: the
// previous image (if any) is replaced only after the new bytes are
// durable, so a crash mid-save can never leave a torn image under the
// final name, and a sha256 footer (ioatomic.Seal) lets every later load
// prove the disk returned the bytes that were stored. The gob stream
// itself is unchanged — Save(w) output is byte-identical to earlier
// releases, and old readers skip the footer because gob decodes exactly
// one value and ignores trailing bytes.
func (d *Device) SaveFile(path string) error {
	return d.SaveFileFS(nil, path)
}

// SaveFileFS is SaveFile over an explicit filesystem seam.
func (d *Device) SaveFileFS(fsys storage.FS, path string) error {
	return ioatomic.WriteToSealed(fsys, path, 0o644, d.Save)
}

// LoadFile reconstructs a device from an image file written by SaveFile
// (or any complete Save stream on disk). Sealed images are verified
// against their sha256 footer (failure → ErrCorruptImage); pre-footer
// images load as before.
func LoadFile(path string) (*Device, error) {
	return LoadFileFS(nil, path)
}

// LoadFileFS is LoadFile over an explicit filesystem seam.
func LoadFileFS(fsys storage.FS, path string) (*Device, error) {
	payload, _, err := ioatomic.ReadFileSealed(fsys, path)
	if err != nil {
		if errors.Is(err, ioatomic.ErrSealMismatch) {
			return nil, fmt.Errorf("%w: %s", ErrCorruptImage, path)
		}
		if errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("device: load: %w", err)
		}
		return nil, fmt.Errorf("device: load: %w", err)
	}
	return Load(bytes.NewReader(payload))
}

// Load reconstructs a device from an image produced by Save.
func Load(r io.Reader) (*Device, error) {
	var img image
	if err := gob.NewDecoder(r).Decode(&img); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("device: load: %w", ErrTruncatedImage)
		}
		return nil, fmt.Errorf("device: load: %w", err)
	}
	if img.Version < 1 || img.Version > imageVersion {
		return nil, fmt.Errorf("device: image version %d unsupported", img.Version)
	}
	model, err := ByName(img.ModelName)
	if err != nil {
		return nil, err
	}
	if len(img.FlashData) > 0 && model.FlashBytes == 0 {
		// Loading would drop the bytes, and a re-Save would lose them.
		return nil, fmt.Errorf("device: image carries %d bytes of flash, but model %s has no flash",
			len(img.FlashData), model.Name)
	}
	var opts []Option
	if img.SRAMBytes < model.SRAMBytes {
		opts = append(opts, WithSRAMLimit(img.SRAMBytes))
	}
	d, err := New(model, img.Serial, opts...)
	if err != nil {
		return nil, err
	}
	if err := d.SRAM.RestoreState(img.SRAM); err != nil {
		return nil, err
	}
	d.refreshLog = append(d.refreshLog, img.RefreshLog...)
	if len(img.FlashData) > 0 {
		if len(img.FlashData) != d.Flash.Bytes() {
			return nil, fmt.Errorf("device: image flash is %d bytes, device has %d",
				len(img.FlashData), d.Flash.Bytes())
		}
		// A fresh store is fully erased, so programming reproduces the
		// digital contents exactly (NOR 1→0 transitions only).
		if err := d.Flash.Program(0, img.FlashData); err != nil {
			return nil, err
		}
	}
	return d, nil
}
