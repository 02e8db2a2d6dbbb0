package device

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"

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

// Image formats. Versions 1–3 are gob streams of the image struct below:
// version 2 added the refresh maintenance ledger, version 3 the SRAM
// noise-plane version (sram.State.NoiseGen). They still load: a missing
// NoiseGen decodes as zero, which RestoreState maps to Box–Muller — the
// only sampler that existed when those images were written — so v1/v2
// archives keep replaying bit-identical captures under the v2 engine.
// They carry no equivalent stress times, so a device loaded from one
// re-derives them on its next stress (an approximate resume).
//
// Version 4, the one Save writes, is a fixed little-endian layout behind
// imageMagic:
//
//	magic      8 bytes, imageMagic
//	version    u32, 4
//	model      u32 length + bytes
//	serial     u32 length + bytes
//	sramBytes  u32, the instantiated size (may be a sample of the model's)
//	state      the SRAM state section (sram.Array.AppendState): seed,
//	           flags, PowerOns, NoiseGen, data plane, aging class table
//	           and per-cell class index, equivalent times included
//	flash      u32 length + bytes: the Flash contents up to the last
//	           byte that is not erased (0xFF); the erased tail is implied
//	refresh    u32 count + count × 4 float64: the maintenance ledger
//
// The encoding is canonical — the same device gives the same bytes in
// any process, and Load rejects any other encoding of it — and it holds
// the device's whole state, so a device loaded from it continues
// exactly as the saved one would have.
const (
	imageVersion   = 4
	lastGobVersion = 3
	// imageMagic opens every version-4 image. No gob stream starts with
	// it: a gob stream opens with a message length, whose first byte is
	// below 0x80 or a negated byte count of 0xF8 and up.
	imageMagic = "\x89IBDEV\r\n"
)

// image is the gob-serialized form of a version 1–3 device image: enough
// to reconstruct the silicon (model + serial regenerate the fingerprint)
// plus the mutable aging/digital state.
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

// Save serializes the device to w as a version-4 image. The CPU is not
// part of the image — firmware is reloaded by whoever receives the
// device, exactly as in the paper's workflow. This is what lets the cmd
// tools hand a simulated device from the encoding party to the
// receiving party as a single file.
func (d *Device) Save(w io.Writer) error {
	var flash []byte
	if d.Flash != nil {
		var err error
		if flash, err = d.Flash.Read(0, d.Flash.Bytes()); err != nil {
			return fmt.Errorf("device: save flash: %w", err)
		}
		for len(flash) > 0 && flash[len(flash)-1] == 0xFF {
			flash = flash[:len(flash)-1]
		}
	}
	b := make([]byte, 0, 64+len(d.Model.Name)+len(d.Serial)+2*d.SRAM.Bytes()+len(flash)+32*len(d.refreshLog))
	b = append(b, imageMagic...)
	b = binary.LittleEndian.AppendUint32(b, imageVersion)
	b = appendField(b, d.Model.Name)
	b = appendField(b, d.Serial)
	b = binary.LittleEndian.AppendUint32(b, uint32(d.SRAM.Bytes()))
	b = d.SRAM.AppendState(b)
	b = appendField(b, flash)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(d.refreshLog)))
	for _, ev := range d.refreshLog {
		for _, v := range [...]float64{ev.ClockHours, ev.StressHours, ev.MarginBefore, ev.MarginAfter} {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("device: save: %w", err)
	}
	return nil
}

// appendField appends a u32 length and the bytes of s.
func appendField[T string | []byte](b []byte, s T) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

// SaveFile writes the device image to path atomically and sealed: the
// previous image (if any) is replaced only after the new bytes are
// durable, so a crash mid-save can never leave a torn image under the
// final name, and a sha256 footer (ioatomic.Seal) lets every later load
// prove the disk returned the bytes that were stored. The payload is
// exactly Save's output.
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
		return nil, fmt.Errorf("device: load: %w", err)
	}
	return load(payload, false)
}

// Load reconstructs a device from an image produced by Save, of any
// version. The reader may also hold a file SaveFile wrote: a version-4
// image accepts its seal footer and verifies it.
func Load(r io.Reader) (*Device, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("device: load: %w", err)
	}
	return load(data, true)
}

// load dispatches on the magic. sealOK lets a version-4 image end in a
// seal footer.
func load(data []byte, sealOK bool) (*Device, error) {
	switch {
	case len(data) < len(imageMagic) && strings.HasPrefix(imageMagic, string(data)):
		// Empty, or cut inside the magic.
		return nil, fmt.Errorf("device: load: %w", ErrTruncatedImage)
	case strings.HasPrefix(string(data), imageMagic):
		return loadV4(data, sealOK)
	}
	return loadGob(data)
}

// loadGob reads a version 1–3 image.
func loadGob(data []byte) (*Device, error) {
	var img image
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&img); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("device: load: %w", ErrTruncatedImage)
		}
		return nil, fmt.Errorf("device: load: %w", err)
	}
	if img.Version < 1 || img.Version > lastGobVersion {
		return nil, fmt.Errorf("device: image version %d unsupported", img.Version)
	}
	model, err := ByName(img.ModelName)
	if err != nil {
		return nil, err
	}
	if len(img.SRAM.Data) != img.SRAMBytes || len(img.SRAM.S0Perm) != 8*img.SRAMBytes {
		// Checked before New, so a short stream cannot make it build a
		// large array.
		return nil, fmt.Errorf("%w: image state does not cover %d bytes of SRAM", sram.ErrStateMismatch, img.SRAMBytes)
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

// imageReader walks a version-4 image. Running off the end is
// ErrTruncatedImage; every length is checked against the bytes left
// before anything is allocated for it.
type imageReader struct {
	b   []byte
	err error
}

func (r *imageReader) take(n uint64) []byte {
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)) {
		r.err = ErrTruncatedImage
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *imageReader) u32() uint32 {
	if b := r.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *imageReader) field() []byte { return r.take(uint64(r.u32())) }

// loadV4 reads a version-4 image. The whole layout is checked against
// the payload before the device is built.
func loadV4(data []byte, sealOK bool) (*Device, error) {
	r := imageReader{b: data[len(imageMagic):]}
	version := r.u32()
	if r.err == nil && version != imageVersion {
		return nil, fmt.Errorf("device: image version %d unsupported", version)
	}
	modelName := string(r.field())
	serial := string(r.field())
	sramBytes := int(r.u32())
	if r.err != nil {
		return nil, fmt.Errorf("device: load: %w", r.err)
	}
	model, err := ByName(modelName)
	if err != nil {
		return nil, err
	}
	if rows, cols := geometry(sramBytes * 8); sramBytes <= 0 || sramBytes > model.SRAMBytes || rows*cols != sramBytes*8 {
		return nil, fmt.Errorf("device: image claims %d bytes of SRAM on a %d-byte %s", sramBytes, model.SRAMBytes, model.Name)
	}
	n, err := sram.StateLen(r.b, sramBytes*8)
	if err != nil {
		if errors.Is(err, sram.ErrTruncatedState) {
			err = ErrTruncatedImage
		}
		return nil, fmt.Errorf("device: load: %w", err)
	}
	state := r.take(uint64(n))
	flash := r.field()
	events := r.take(32 * uint64(r.u32()))
	if r.err != nil {
		return nil, fmt.Errorf("device: load: %w", r.err)
	}
	if len(r.b) > 0 {
		end := len(data) - len(r.b)
		if payload, sealed, err := ioatomic.Unseal(data); !sealOK || !sealed || err != nil || len(payload) != end {
			return nil, fmt.Errorf("device: image has %d bytes after its end", len(r.b))
		}
	}
	switch {
	case len(flash) > 0 && model.FlashBytes == 0:
		return nil, fmt.Errorf("device: image carries %d bytes of flash, but model %s has no flash",
			len(flash), model.Name)
	case len(flash) > model.FlashBytes:
		return nil, fmt.Errorf("device: image flash is %d bytes, model %s has %d",
			len(flash), model.Name, model.FlashBytes)
	case len(flash) > 0 && flash[len(flash)-1] == 0xFF:
		return nil, fmt.Errorf("device: image flash ends in erased bytes")
	}

	var opts []Option
	if sramBytes < model.SRAMBytes {
		opts = append(opts, WithSRAMLimit(sramBytes))
	}
	d, err := New(model, serial, opts...)
	if err != nil {
		return nil, err
	}
	if _, err := d.SRAM.ReadState(state); err != nil {
		return nil, fmt.Errorf("device: load: %w", err)
	}
	if len(flash) > 0 {
		// A fresh store is fully erased, so programming reproduces the
		// digital contents exactly (NOR 1→0 transitions only).
		if err := d.Flash.Program(0, flash); err != nil {
			return nil, err
		}
	}
	for ; len(events) > 0; events = events[32:] {
		var v [4]float64
		for k := range v {
			v[k] = math.Float64frombits(binary.LittleEndian.Uint64(events[8*k:]))
		}
		d.refreshLog = append(d.refreshLog, RefreshEvent{
			ClockHours: v[0], StressHours: v[1], MarginBefore: v[2], MarginAfter: v[3],
		})
	}
	return d, nil
}
