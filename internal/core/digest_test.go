package core

import (
	"errors"
	"testing"

	"invisiblebits/internal/stegocrypt"
)

func TestDigestUnkeyedCRC32(t *testing.T) {
	r := newRig(t, "MSP432P401", "digest-crc", 2<<10)
	opts := Options{Codec: paperCodec(t)}
	msg := []byte("integrity without a shared key")
	rec, err := Encode(r, msg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rec.DigestAlgo != DigestCRC32 || rec.Digest == "" {
		t.Fatalf("record digest = %q/%q, want CRC32 populated", rec.DigestAlgo, rec.Digest)
	}
	if err := rec.VerifyMessage(msg, nil); err != nil {
		t.Fatalf("VerifyMessage on the true message: %v", err)
	}
	wrong := append([]byte(nil), msg...)
	wrong[0] ^= 1
	if err := rec.VerifyMessage(wrong, nil); !errors.Is(err, ErrDigestMismatch) {
		t.Fatalf("VerifyMessage on a flipped bit = %v, want ErrDigestMismatch", err)
	}
}

func TestDigestKeyedHMAC(t *testing.T) {
	r := newRig(t, "MSP432P401", "digest-hmac", 2<<10)
	key := stegocrypt.KeyFromPassphrase("digest key")
	opts := Options{Codec: paperCodec(t), Key: &key}
	msg := []byte("keyed integrity")
	rec, err := Encode(r, msg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rec.DigestAlgo != DigestHMACSHA256 {
		t.Fatalf("DigestAlgo = %q, want %q", rec.DigestAlgo, DigestHMACSHA256)
	}
	if err := rec.VerifyMessage(msg, &key); err != nil {
		t.Fatal(err)
	}
	// Verifying a keyed digest without the key must fail loudly, not
	// silently pass or report a plain mismatch.
	if err := rec.VerifyMessage(msg, nil); !errors.Is(err, ErrDigestNeedsKey) {
		t.Fatalf("keyless verify = %v, want ErrDigestNeedsKey", err)
	}
	other := stegocrypt.KeyFromPassphrase("not the digest key")
	if err := rec.VerifyMessage(msg, &other); !errors.Is(err, ErrDigestMismatch) {
		t.Fatalf("wrong-key verify = %v, want ErrDigestMismatch", err)
	}
}

func TestDigestBoundToDevice(t *testing.T) {
	// The digest domain includes the device ID, so the same message on
	// a different carrier produces a different keyed digest — a record
	// cannot be replayed against another device's image.
	key := stegocrypt.KeyFromPassphrase("digest key")
	opts := Options{Codec: paperCodec(t), Key: &key}
	msg := []byte("bound to its carrier")

	recA, err := Encode(newRig(t, "MSP432P401", "carrier-a", 2<<10), msg, opts)
	if err != nil {
		t.Fatal(err)
	}
	recB, err := Encode(newRig(t, "MSP432P401", "carrier-b", 2<<10), msg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if recA.Digest == recB.Digest {
		t.Fatal("keyed digests identical across devices; domain separation is broken")
	}
}

func TestVerifyMessageWithoutDigest(t *testing.T) {
	rec := &Record{}
	if rec.HasDigest() {
		t.Fatal("empty record claims a digest")
	}
	if err := rec.VerifyMessage([]byte("x"), nil); !errors.Is(err, ErrNoDigest) {
		t.Fatalf("err = %v, want ErrNoDigest", err)
	}
}

func TestDecodeRejectsMalformedRecordShape(t *testing.T) {
	// The record-shape validation must reject truncated or corrupted
	// records up front in both decode paths instead of slicing past the
	// payload bounds.
	r := newRig(t, "MSP432P401", "bad-shape", 2<<10)
	opts := Options{Codec: paperCodec(t)}
	rec, err := Encode(r, []byte("well formed"), opts)
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*Record){
		"zero message bytes": func(rc *Record) { rc.MessageBytes = 0 },
		"zero payload bytes": func(rc *Record) { rc.PayloadBytes = 0 },
		"payload too small":  func(rc *Record) { rc.PayloadBytes = 1 },
		"oversized message":  func(rc *Record) { rc.MessageBytes = 1 << 20 },
		"negative payload":   func(rc *Record) { rc.PayloadBytes = -4 },
	} {
		bad := *rec
		mutate(&bad)
		if _, err := Decode(r, &bad, opts); !errors.Is(err, ErrRecordShape) {
			t.Errorf("%s: hard decode err = %v, want ErrRecordShape", name, err)
		}
		soft := opts
		soft.Soft = true
		if _, err := Decode(r, &bad, soft); !errors.Is(err, ErrRecordShape) {
			t.Errorf("%s: soft decode err = %v, want ErrRecordShape", name, err)
		}
	}
}
