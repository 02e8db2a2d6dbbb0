package core

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"invisiblebits/internal/device"
	"invisiblebits/internal/ecc"
	"invisiblebits/internal/progen"
	"invisiblebits/internal/rig"
	"invisiblebits/internal/rng"
	"invisiblebits/internal/stats"
	"invisiblebits/internal/stegocrypt"
)

func newRig(t *testing.T, model, serial string, limitBytes int) *rig.Rig {
	t.Helper()
	m, err := device.ByName(model)
	if err != nil {
		t.Fatal(err)
	}
	var opts []device.Option
	if limitBytes > 0 {
		opts = append(opts, device.WithSRAMLimit(limitBytes))
	}
	d, err := device.New(m, serial, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return rig.New(d)
}

func paperCodec(t *testing.T) ecc.Codec {
	t.Helper()
	rep, err := ecc.NewRepetition(7)
	if err != nil {
		t.Fatal(err)
	}
	return ecc.Composite{Outer: ecc.Hamming74{}, Inner: rep}
}

func TestEndToEndEncryptedMessage(t *testing.T) {
	// The paper's Fig. 13 system: Hamming(7,4) + repetition + AES-CTR,
	// encoded on an MSP432 and recovered error-free.
	r := newRig(t, "MSP432P401", "e2e", 8<<10)
	key := stegocrypt.KeyFromPassphrase("pre-shared secret")
	msg := []byte("The border guards must not find this message. -Alice")
	opts := Options{Codec: paperCodec(t), Key: &key}

	rec, err := Encode(r, msg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Encrypted || rec.MessageBytes != len(msg) {
		t.Fatalf("record = %+v", rec)
	}

	got, err := Decode(r, rec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("recovered %q, want %q", got, msg)
	}
}

func TestEndToEndSurvivesShelving(t *testing.T) {
	// Resilience headline: the message survives a month on the shelf.
	r := newRig(t, "MSP432P401", "shelf", 8<<10)
	key := stegocrypt.KeyFromPassphrase("k")
	msg := bytes.Repeat([]byte("resilient "), 10)
	opts := Options{Codec: paperCodec(t), Key: &key}
	rec, err := Encode(r, msg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.ShelveFor(28 * 24); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(r, rec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("message lost after a month of shelving")
	}
}

func TestPlaintextNoECCHasChannelError(t *testing.T) {
	// Without ECC the recovered message carries the ~6.5% channel error.
	r := newRig(t, "MSP432P401", "raw", 8<<10)
	msg := make([]byte, 4<<10)
	rng.NewSource(5).Bytes(msg)
	rec, err := Encode(r, msg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(r, rec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ber := stats.BitErrorRate(got, msg)
	if ber < 0.04 || ber > 0.09 {
		t.Fatalf("raw channel error = %v, want ≈0.065", ber)
	}
}

func TestDecodeParameterMismatches(t *testing.T) {
	r := newRig(t, "MSP432P401", "pm", 8<<10)
	key := stegocrypt.KeyFromPassphrase("k")
	msg := []byte("hello")
	opts := Options{Codec: paperCodec(t), Key: &key}
	rec, err := Encode(r, msg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(r, rec, Options{Codec: paperCodec(t)}); err == nil {
		t.Error("decode without key accepted for encrypted record")
	}
	if _, err := Decode(r, rec, Options{Key: &key}); err == nil ||
		!strings.Contains(err.Error(), "codec") {
		t.Errorf("codec mismatch not detected: %v", err)
	}
	if _, err := Decode(r, nil, opts); err == nil {
		t.Error("nil record accepted")
	}
}

func TestWrongKeyYieldsGarbage(t *testing.T) {
	r := newRig(t, "MSP432P401", "wk", 8<<10)
	key := stegocrypt.KeyFromPassphrase("right")
	wrong := stegocrypt.KeyFromPassphrase("wrong")
	msg := make([]byte, 512)
	rng.NewSource(9).Bytes(msg)
	opts := Options{Key: &key}
	rec, err := Encode(r, msg, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(r, rec, Options{Key: &wrong})
	if err != nil {
		t.Fatal(err)
	}
	if ber := stats.BitErrorRate(got, msg); ber < 0.4 {
		t.Fatalf("wrong key recovered message (ber=%v)", ber)
	}
}

func TestEncodeValidation(t *testing.T) {
	r := newRig(t, "MSP432P401", "val", 4<<10)
	if _, err := Encode(r, nil, Options{}); err != ErrEmptyMessage {
		t.Errorf("empty message: %v", err)
	}
	big := make([]byte, 5<<10)
	if _, err := Encode(r, big, Options{}); err == nil {
		t.Error("oversized payload accepted")
	}
}

func TestMaxMessageBytes(t *testing.T) {
	// Identity: full SRAM.
	if got := MaxMessageBytes(64<<10, nil); got != 64<<10 {
		t.Errorf("identity capacity = %d", got)
	}
	// 5-copy repetition on 64 KB: 12.8 KB (§5.3: "using five copies
	// allows Invisible Bits to hide 12.8KB of payload (20% × 64KB)").
	rep5, _ := ecc.NewRepetition(5)
	if got := MaxMessageBytes(64<<10, rep5); got != 64<<10/5 {
		t.Errorf("rep5 capacity = %d, want %d", got, 64<<10/5)
	}
	// Composite must respect both expansions.
	comp := ecc.Composite{Outer: ecc.Hamming74{}, Inner: rep5}
	got := MaxMessageBytes(64<<10, comp)
	if comp.EncodedLen(got) > 64<<10 || comp.EncodedLen(got+1) <= 64<<10 {
		t.Errorf("composite capacity %d not maximal", got)
	}
}

func TestCacheDeviceEncodesViaDebugPort(t *testing.T) {
	// The BCM2837 has no on-chip flash; core must fall back to debugger
	// writes (the paper's co-processor path).
	r := newRig(t, "BCM2837", "rpi", 4<<10)
	msg := make([]byte, 256)
	rng.NewSource(3).Bytes(msg)
	key := stegocrypt.KeyFromPassphrase("k")
	rep5, _ := ecc.NewRepetition(5)
	opts := Options{Codec: rep5, Key: &key}
	rec, err := Encode(r, msg, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(r, rec, opts)
	if err != nil {
		t.Fatal(err)
	}
	// BCM2837's channel error is ~21%; repetition(5) leaves a few
	// percent, so compare with tolerance rather than exactly.
	if ber := stats.BitErrorRate(got, msg); ber > 0.10 {
		t.Fatalf("cache-device decode error = %v", ber)
	}
}

func TestRecordStressHoursDefaultAndOverride(t *testing.T) {
	r := newRig(t, "MSP432P401", "sh", 4<<10)
	rec, err := Encode(r, []byte("x"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.StressHours != 10 {
		t.Errorf("default stress hours = %v", rec.StressHours)
	}
	r2 := newRig(t, "MSP432P401", "sh2", 4<<10)
	rec2, err := Encode(r2, []byte("x"), Options{StressHours: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rec2.StressHours != 2 {
		t.Errorf("override stress hours = %v", rec2.StressHours)
	}
}

func TestRawChannelError(t *testing.T) {
	r := newRig(t, "MSP432P401", "rce", 8<<10)
	payload := make([]byte, r.Device().SRAM.Bytes())
	rng.NewSource(4).Bytes(payload)
	if _, err := Encode(r, payload, Options{}); err != nil {
		t.Fatal(err)
	}
	ber, err := RawChannelErrorContext(context.Background(), r, payload, 5)
	if err != nil {
		t.Fatal(err)
	}
	if ber < 0.04 || ber > 0.09 {
		t.Errorf("raw channel error = %v", ber)
	}
}

func TestCamouflageLoadedAfterEncode(t *testing.T) {
	r := newRig(t, "MSP432P401", "cam", 4<<10)
	if _, err := Encode(r, []byte("msg"), Options{}); err != nil {
		t.Fatal(err)
	}
	// The flash image must now be the camouflage program, not the writer:
	// run it and observe it never busy-waits (it loops forever writing a
	// tick counter).
	if _, err := r.PowerOn(); err != nil {
		t.Fatal(err)
	}
	reason, err := r.RunFirmware(10000)
	if err != nil {
		t.Fatal(err)
	}
	if reason.String() != "step-limit" {
		t.Errorf("camouflage firmware stopped with %v", reason)
	}
}

// TestRetainerProgramAssembledOnce: every reveal flashes one shared
// assembly of the retainer program, and it is the program the
// generator's source assembles to.
func TestRetainerProgramAssembledOnce(t *testing.T) {
	p, err := retainerProgram()
	if err != nil {
		t.Fatal(err)
	}
	if q, _ := retainerProgram(); q != p {
		t.Fatal("the retainer program was assembled twice")
	}
	want, err := progen.Assemble(progen.RetainerProgram())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p.Image, want.Image) || p.Origin != want.Origin {
		t.Fatal("the shared retainer program differs from a fresh assembly")
	}
}
