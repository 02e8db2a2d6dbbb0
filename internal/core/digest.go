package core

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"

	"invisiblebits/internal/stegocrypt"
)

// Digest algorithm names carried in Record.DigestAlgo.
const (
	// DigestCRC32 is the unkeyed integrity check: CRC32 (IEEE) of the
	// plaintext message. It detects channel corruption but is forgeable;
	// it is used only when no key was supplied at encode time.
	DigestCRC32 = "crc32"
	// DigestHMACSHA256 is the keyed check: HMAC-SHA256 over a
	// domain-separated tuple of the device ID and the plaintext. Because
	// it is keyed it reveals nothing about the message to a record
	// observer, and it cannot be satisfied by a forged plaintext.
	DigestHMACSHA256 = "hmac-sha256"
)

// Digest errors.
var (
	// ErrNoDigest marks records minted before the digest scheme (or
	// stripped in transit): adaptive decode cannot self-verify them.
	ErrNoDigest = errors.New("core: record carries no integrity digest")
	// ErrDigestMismatch means the decoded bytes are not the message the
	// record was minted for.
	ErrDigestMismatch = errors.New("core: decoded message fails the record's integrity digest")
	// ErrDigestNeedsKey means the record's digest is keyed (HMAC) and
	// cannot be checked without the pre-shared key.
	ErrDigestNeedsKey = errors.New("core: record digest is keyed but no key supplied")
)

// digestDomain separates the digest HMAC from any other use of the
// pre-shared key (the AES-CTR layer keys off the device-ID nonce).
const digestDomain = "invisible-bits/digest/v1"

// computeDigest derives the record digest for a plaintext message:
// CRC32 without a key, HMAC-SHA256 bound to the device ID with one.
func computeDigest(msg []byte, deviceID string, key *stegocrypt.Key) (algo, digest string) {
	if key == nil {
		return DigestCRC32, fmt.Sprintf("%08x", crc32.ChecksumIEEE(msg))
	}
	mac := hmac.New(sha256.New, key[:])
	mac.Write([]byte(digestDomain))
	mac.Write([]byte{0})
	mac.Write([]byte(deviceID))
	mac.Write([]byte{0})
	mac.Write(msg)
	return DigestHMACSHA256, hex.EncodeToString(mac.Sum(nil))
}

// VerifyMessage checks a candidate plaintext against the record's
// integrity digest. It returns nil when the digest matches,
// ErrDigestMismatch when it does not, ErrNoDigest for pre-digest
// records, and ErrDigestNeedsKey when a keyed digest is checked
// without its key. It runs the decode tail's own check on a pooled
// arena.
func (rec *Record) VerifyMessage(msg []byte, key *stegocrypt.Key) error {
	a := arenaPool.Get().(*DecodeArena)
	defer arenaPool.Put(a)
	return a.verifyMessage(rec, msg, key)
}

// HasDigest reports whether the record can self-verify a decode.
func (rec *Record) HasDigest() bool { return rec.Digest != "" }
