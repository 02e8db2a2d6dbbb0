// Package core implements Invisible Bits itself: the message encoding
// pipeline of Algorithm 1 (ECC → encryption → payload-writer program →
// accelerated aging → camouflage) and the decoding pipeline of
// Algorithm 2 (retainer program → N power-on captures → majority vote →
// inversion → decryption → ECC decode).
//
// The package orchestrates the substrates: progen generates the programs,
// the rig drives voltage/temperature/power, the device executes the
// programs and ages, and ecc/stegocrypt pre/post-process the message.
package core

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"invisiblebits/internal/asm"
	"invisiblebits/internal/cpu"
	"invisiblebits/internal/ecc"
	"invisiblebits/internal/faults"
	"invisiblebits/internal/progen"
	"invisiblebits/internal/rig"
	"invisiblebits/internal/stegocrypt"
)

// DefaultCaptures is the paper's power-on sample count: "we find that
// taking five captures is sufficient to filter noise" (§4.3).
const DefaultCaptures = 5

// DefaultMaxRetries bounds how many times a transient fault (a dropped
// debugger link, a lost capture burst) is retried before the operation
// is abandoned. Only errors classified faults.IsTransient are retried,
// so the budget is never consumed on a fault-free rig.
const DefaultMaxRetries = 3

// DefaultRetryBackoffHours is the simulated time charged before the
// first retry; it doubles per attempt. In the lab, re-seating a probe
// and re-running a burst costs real bench time, and the simulation
// charges it to the same clock that prices encoding-hours.
const DefaultRetryBackoffHours = 0.25

// defaultMaxSteps bounds payload-writer execution; a full 320 KB writer
// needs ~600k instructions, so this is generous.
const defaultMaxSteps = 100_000_000

// Options configures an encode.
type Options struct {
	// Codec is the error-correction layer; nil means no ECC (identity).
	Codec ecc.Codec
	// Key enables the AES-CTR encryption layer; nil encodes plain-text
	// (detectable by analog steganalysis — see §6).
	Key *stegocrypt.Key
	// StressHours overrides the device's Table 4 encoding time when > 0.
	StressHours float64
	// Captures is the majority-vote sample count for decode; 0 means
	// DefaultCaptures.
	Captures int
	// Soft enables soft-decision decoding: instead of majority-voting
	// captures into hard bits, the per-cell vote counts are combined
	// across repetition copies as confidences (an extension beyond the
	// paper's §4.3 scheme; requires the codec to implement
	// ecc.SoftDecoder).
	Soft bool
	// DecodeTempC overrides the chamber temperature during decode when
	// non-zero. The paper reads at nominal temperature; setting this lets
	// experiments measure read-out robustness at the wrong temperature
	// (power-on state is temperature-susceptible, see ISSUE refs).
	DecodeTempC float64
	// Arena supplies caller-owned scratch for the decode tail (see
	// DecodeArena). Every decode runs the same arena tail either way;
	// the field only decides who owns the scratch. When nil, the decode
	// borrows an arena from a package pool and copies the message out
	// before returning it, so the caller owns the result. When set,
	// the returned message is arena-owned — valid only until the
	// arena's next use. Arenas are not safe for concurrent use; keep
	// one per worker.
	Arena *DecodeArena
}

func (o Options) codec() ecc.Codec {
	if o.Codec == nil {
		return ecc.Identity{}
	}
	return o.Codec
}

func (o Options) captures() int {
	if o.Captures <= 0 {
		return DefaultCaptures
	}
	return o.Captures
}

// retry wraps one link operation in the bounded-retry policy
// (DefaultMaxRetries, DefaultRetryBackoffHours), charging exponential
// backoff to the rig's simulated clock.
func retry(ctx context.Context, r *rig.Rig, op func() error) error {
	return faults.Retry(ctx, r, DefaultMaxRetries, DefaultRetryBackoffHours, op)
}

// Record is the encode-side receipt. It carries exactly what the paper
// assumes is pre-shared between the communicating parties (footnote 3:
// "the presence and order of error correction and encryption information
// are pre-shared") — never the key.
type Record struct {
	DeviceID     string
	MessageBytes int
	PayloadBytes int // post-ECC, post-encryption, word-aligned
	CodecName    string
	Encrypted    bool
	Captures     int
	StressHours  float64
	// Digest is the integrity digest of the plaintext message
	// (hex-encoded), and DigestAlgo names the scheme: CRC32 for
	// unkeyed records, HMAC-SHA256 (keyed, domain-separated over the
	// device ID) when the message was encrypted. The digest makes
	// decode success machine-checkable without revealing the message.
	Digest     string `json:",omitempty"`
	DigestAlgo string `json:",omitempty"`
}

// Errors.
var (
	ErrEmptyMessage    = errors.New("core: message is empty")
	ErrPayloadTooLarge = errors.New("core: payload exceeds device SRAM capacity")
	ErrRecordShape     = errors.New("core: record shape is inconsistent")
)

// recordCodedLen validates the record's claimed geometry against the
// codec before anything slices the captured payload: a corrupt or
// mismatched record must fail with ErrRecordShape, not a slice panic.
func recordCodedLen(rec *Record, codec ecc.Codec) (int, error) {
	if rec.MessageBytes <= 0 || rec.PayloadBytes <= 0 {
		return 0, fmt.Errorf("%w: message %d bytes, payload %d bytes",
			ErrRecordShape, rec.MessageBytes, rec.PayloadBytes)
	}
	codedLen := codec.EncodedLen(rec.MessageBytes)
	if codedLen <= 0 || codedLen > rec.PayloadBytes {
		return 0, fmt.Errorf("%w: codec %s expands %d message bytes to %d coded bytes but record claims %d payload bytes",
			ErrRecordShape, codec.Name(), rec.MessageBytes, codedLen, rec.PayloadBytes)
	}
	return codedLen, nil
}

// MaxMessageBytes returns the largest message (pre-ECC) that fits in
// sramBytes of SRAM under the given codec — the capacity measure used
// throughout §5.3.
func MaxMessageBytes(sramBytes int, codec ecc.Codec) int {
	if codec == nil {
		codec = ecc.Identity{}
	}
	lo, hi := 0, sramBytes
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if codec.EncodedLen(mid)+wordPad(codec.EncodedLen(mid)) <= sramBytes {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

func wordPad(n int) int { return (4 - n%4) % 4 }

// BuildPayload runs the message pre-processing half of Algorithm 1
// (lines 1–2): ECC expansion, word-alignment padding, then encryption.
// Encrypting after padding keeps the padding indistinguishable from the
// rest of the ciphertext, preserving analog-domain deniability.
func BuildPayload(message []byte, deviceID string, opts Options) ([]byte, error) {
	if len(message) == 0 {
		return nil, ErrEmptyMessage
	}
	coded, err := opts.codec().Encode(message)
	if err != nil {
		return nil, fmt.Errorf("core: ecc encode: %w", err)
	}
	if pad := wordPad(len(coded)); pad > 0 {
		coded = append(coded, make([]byte, pad)...)
	}
	if opts.Key != nil {
		coded, err = stegocrypt.StreamXOR(*opts.Key, deviceID, coded)
		if err != nil {
			return nil, fmt.Errorf("core: encrypt: %w", err)
		}
	}
	return coded, nil
}

// Encode hides message in the analog domain of the rig's device
// (Algorithm 1). On return the device is powered off at nominal
// conditions, with camouflage firmware loaded if the device has flash.
func Encode(r *rig.Rig, message []byte, opts Options) (*Record, error) {
	return EncodeContext(context.Background(), r, message, opts)
}

// EncodeContext is Encode with cancellation and failure tolerance:
// transient link faults (flash and capture bursts) are retried up to
// DefaultMaxRetries with backoff charged to the rig's simulated clock,
// and ctx cancellation propagates into the hours-long stress soak.
//
// It is exactly the staged session run in one breath — prepare, a
// single full-length soak, finish — so the one-shot path stays
// bit-identical to pre-session builds (the soak is one StressForContext
// call, no slicing) while sharing all pipeline code with supervisors
// that checkpoint between slices.
func EncodeContext(ctx context.Context, r *rig.Rig, message []byte, opts Options) (*Record, error) {
	s, err := BeginEncode(ctx, r, message, opts)
	if err != nil {
		return nil, err
	}
	if err := s.StressSlice(ctx, s.TotalHours()); err != nil {
		return nil, err
	}
	return s.Finish(ctx)
}

// loadCamouflage flashes the innocuous cover firmware, retried across
// transient link faults.
func loadCamouflage(ctx context.Context, r *rig.Rig) error {
	camo, err := progen.Assemble(progen.CamouflageProgram())
	if err != nil {
		return fmt.Errorf("core: camouflage: %w", err)
	}
	return retry(ctx, r, func() error { return r.LoadProgram(camo) })
}

// writePayloadToSRAM initializes the SRAM state. MCUs run the generated
// payload-writer firmware on their own CPU; cache-SRAM devices (no
// on-chip flash) are written through the debug port, mirroring the
// paper's co-processor access path for the BCM2837 (§5).
func writePayloadToSRAM(ctx context.Context, r *rig.Rig, payload []byte) error {
	dev := r.Device()
	if dev.Flash == nil {
		return retry(ctx, r, func() error {
			if _, err := r.PowerOn(); err != nil {
				return err
			}
			return dev.SRAM.WriteAt(0, payload)
		})
	}
	src, err := progen.WriterProgram(payload)
	if err != nil {
		return err
	}
	prog, err := progen.Assemble(src)
	if err != nil {
		return fmt.Errorf("core: assemble writer: %w", err)
	}
	// The flash + run sequence retries as a unit: a link drop mid-flash
	// leaves the image suspect, so the whole write is re-driven.
	return retry(ctx, r, func() error {
		if err := r.LoadProgram(prog); err != nil {
			return err
		}
		if _, err := r.PowerOn(); err != nil {
			return err
		}
		reason, err := r.RunFirmware(defaultMaxSteps)
		if err != nil {
			return err
		}
		if reason != cpu.StopBusyWait {
			return fmt.Errorf("core: payload writer stopped with %v, want busy-wait", reason)
		}
		return nil
	})
}

// Decode recovers the hidden message from the rig's device (Algorithm 2).
// The receiving party supplies the pre-shared parameters: the record's
// codec/shape information and, if the message was encrypted, the key.
func Decode(r *rig.Rig, rec *Record, opts Options) ([]byte, error) {
	return DecodeContext(context.Background(), r, rec, opts)
}

// DecodeContext is Decode with cancellation and failure tolerance:
// transient link faults during the retainer flash and the capture burst
// are retried up to DefaultMaxRetries, with backoff charged to the rig's
// simulated clock.
func DecodeContext(ctx context.Context, r *rig.Rig, rec *Record, opts Options) ([]byte, error) {
	l := leaseArena(opts.Arena)
	msg, err := decodeOn(ctx, l.DecodeArena, r, rec, opts)
	return l.release(msg), err
}

// decodeOn is DecodeContext on arena a; the message it returns is
// arena-owned.
func decodeOn(ctx context.Context, a *DecodeArena, r *rig.Rig, rec *Record, opts Options) ([]byte, error) {
	if rec == nil {
		return nil, errors.New("core: nil record")
	}
	codec := opts.codec()
	if codec.Name() != rec.CodecName {
		return nil, fmt.Errorf("core: codec %q does not match record's %q", codec.Name(), rec.CodecName)
	}
	codedLen, err := recordCodedLen(rec, codec)
	if err != nil {
		return nil, err
	}
	if err := prepareDecode(ctx, r, opts); err != nil {
		return nil, err
	}

	captures := rec.Captures
	if opts.Captures > 0 {
		captures = opts.Captures
	}
	if opts.Soft {
		return decodeSoft(ctx, a, r, rec, opts, codec, captures, codedLen)
	}

	var maj []byte
	err = retry(ctx, r, func() error {
		var serr error
		maj, serr = r.SampleMajorityContext(ctx, captures)
		return serr
	})
	if err != nil {
		return nil, err
	}
	if rec.PayloadBytes > len(maj) {
		return nil, fmt.Errorf("core: record claims %d payload bytes but SRAM is %d", rec.PayloadBytes, len(maj))
	}

	// Post-processing (Algorithm 2, lines 6–7): invert ("like a negative
	// in photography", §4.3), decrypt, ECC-decode — all in arena scratch
	// (cached keystream, compiled pipeline).
	payload := a.payloadBuf(rec.PayloadBytes)
	for i := range payload {
		payload[i] = ^maj[i]
	}
	if err := a.decryptInPlace(payload, rec, opts); err != nil {
		return nil, err
	}
	msg := a.msgBuf(rec.MessageBytes)
	if err := a.pipelineFor(codec).DecodeInto(msg, payload[:codedLen], rec.MessageBytes); err != nil {
		return nil, fmt.Errorf("core: ecc decode: %w", err)
	}
	return msg, nil
}

// retainerProgram is the assembled retainer firmware. It is constant,
// so it is assembled once; LoadProgram only reads it, so every reveal
// shares it.
var retainerProgram = sync.OnceValues(func() (*asm.Program, error) {
	return progen.Assemble(progen.RetainerProgram())
})

// prepareDecode flashes the retainer program (retried across transient
// link faults) and brings the chamber to decode conditions: nominal
// voltage, and either nominal temperature or Options.DecodeTempC.
func prepareDecode(ctx context.Context, r *rig.Rig, opts Options) error {
	dev := r.Device()
	if dev.Flash != nil {
		ret, err := retainerProgram()
		if err != nil {
			return fmt.Errorf("core: retainer: %w", err)
		}
		if err := retry(ctx, r, func() error { return r.LoadProgram(ret) }); err != nil {
			return err
		}
	}
	tempC := dev.Model.TNomC
	if opts.DecodeTempC != 0 {
		tempC = opts.DecodeTempC
	}
	r.SetTemperature(tempC)
	return r.SetVoltage(dev.Model.VNomV)
}

// decodeSoft is the soft-decision path: the payload cells' vote counts,
// unpacked from the arena's vote plane as the ladder's soft rung does,
// become per-payload-bit confidences, decryption flips confidences where
// the keystream is 1 (XOR in probability space), and the codec's
// SoftDecoder combines them.
func decodeSoft(ctx context.Context, a *DecodeArena, r *rig.Rig, rec *Record, opts Options, codec ecc.Codec, captures, codedLen int) ([]byte, error) {
	soft, ok := codec.(ecc.SoftDecoder)
	if !ok {
		return nil, fmt.Errorf("core: codec %s does not support soft decoding", codec.Name())
	}
	if err := retry(ctx, r, func() error {
		return r.SampleVotePlaneIntoContext(ctx, captures, &a.acc)
	}); err != nil {
		return nil, err
	}
	payloadBits := rec.PayloadBytes * 8
	if payloadBits > a.acc.Cells() {
		return nil, fmt.Errorf("core: record claims %d payload bits but SRAM has %d cells",
			payloadBits, a.acc.Cells())
	}
	votes := a.votesBuf(payloadBits)
	a.acc.CountsInto(votes)
	conf, err := a.confidences(votes, captures, rec, opts)
	if err != nil {
		return nil, err
	}
	msg, err := soft.DecodeSoft(conf[:codedLen*8], rec.MessageBytes)
	if err != nil {
		return nil, fmt.Errorf("core: soft decode: %w", err)
	}
	return msg, nil
}

// RawChannelErrorContext measures the single-copy channel error of an
// encoded device against a known payload — the §5.1 error-profiling
// primitive. It has the same cancellation and bounded-retry treatment
// as the other capture paths: transient link faults during the capture
// burst are retried up to DefaultMaxRetries with backoff charged to the
// rig's simulated clock.
func RawChannelErrorContext(ctx context.Context, r *rig.Rig, payload []byte, captures int) (float64, error) {
	var maj []byte
	err := retry(ctx, r, func() error {
		var serr error
		maj, serr = r.SampleMajorityContext(ctx, captures)
		return serr
	})
	if err != nil {
		return 0, err
	}
	if len(payload) > len(maj) {
		return 0, fmt.Errorf("core: payload longer than SRAM")
	}
	errBits := 0
	for i, b := range payload {
		errBits += bits.OnesCount8(^maj[i] ^ b)
	}
	return float64(errBits) / float64(8*len(payload)), nil
}
