// Package stegocrypt implements the encryption layer of Invisible Bits
// (§4.1, §6).
//
// The paper's key insight for cipher selection: the SRAM channel is noisy,
// and a block-chained cipher's diffusion turns a fraction-of-a-percent
// channel error into ~50 % plaintext error ("using the industry-standard
// cipher AES-CBC turns an error rate of 0.8% into an error rate of 50%").
// Invisible Bits therefore uses a *stream* cipher — AES-CTR — which is
// error-neutral: "error bits in the ciphertext are exactly the error bits
// in the plaintext, no less, no more". CTR's second job is analog-domain
// plausible deniability: ciphertext is indistinguishable from the random
// power-on state of a clean SRAM (§6).
//
// The CTR nonce is derived from the manufacturer's device ID, "ensur[ing]
// that even the same messages produce different payloads" across devices
// (§4.1, footnote 4). Both sides derive it independently; only the key is
// pre-shared.
//
// AES-CBC is also provided, solely so the evaluation can reproduce the
// error-amplification comparison.
package stegocrypt

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"errors"
	"fmt"
)

// KeySize is the AES key size used throughout (AES-256).
const KeySize = 32

// Key is a pre-shared symmetric key.
type Key [KeySize]byte

// KeyFromPassphrase derives a Key by hashing the passphrase. This stands
// in for whatever out-of-band key agreement the communicating parties use
// (the threat model simply assumes "a pre-shared key", §3).
func KeyFromPassphrase(passphrase string) Key {
	return Key(sha256.Sum256([]byte("invisible-bits/v1:" + passphrase)))
}

// NonceFromDeviceID deterministically maps a device identifier to a
// 16-byte CTR initial counter block.
func NonceFromDeviceID(deviceID string) [aes.BlockSize]byte {
	sum := sha256.Sum256([]byte("invisible-bits/nonce:" + deviceID))
	var iv [aes.BlockSize]byte
	copy(iv[:], sum[:aes.BlockSize])
	return iv
}

// ErrEmptyDeviceID guards against accidentally sharing one keystream
// across devices, which would void footnote 4's cross-device protection.
var ErrEmptyDeviceID = errors.New("stegocrypt: device ID must be non-empty")

// StreamXOR applies the AES-CTR keystream for (key, deviceID) to data and
// returns the result. Encryption and decryption are the same operation.
// The input is not modified.
func StreamXOR(key Key, deviceID string, data []byte) ([]byte, error) {
	stream, err := ctrStream(key, deviceID)
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(data))
	stream.XORKeyStream(out, data)
	return out, nil
}

// KeyStream writes the first len(dst) bytes of the AES-CTR keystream for
// (key, deviceID) into dst, generated in place: what StreamXOR applies
// to that many bytes, for a caller that keeps the stream in a buffer of
// its own.
func KeyStream(key Key, deviceID string, dst []byte) error {
	stream, err := ctrStream(key, deviceID)
	if err != nil {
		return err
	}
	clear(dst)
	stream.XORKeyStream(dst, dst)
	return nil
}

// ctrStream returns the AES-CTR stream for (key, deviceID).
func ctrStream(key Key, deviceID string) (cipher.Stream, error) {
	if deviceID == "" {
		return nil, ErrEmptyDeviceID
	}
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, fmt.Errorf("stegocrypt: %w", err)
	}
	iv := NonceFromDeviceID(deviceID)
	return cipher.NewCTR(block, iv[:]), nil
}

// EncryptCBC encrypts data under AES-CBC with a zero-padded final block,
// returning iv-less ciphertext (the IV derives from the device ID, as in
// CTR, so ciphertext length equals padded plaintext length). It exists to
// reproduce §4.1's diffusion comparison — do not use it for the actual
// channel.
func EncryptCBC(key Key, deviceID string, data []byte) ([]byte, error) {
	if deviceID == "" {
		return nil, ErrEmptyDeviceID
	}
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, fmt.Errorf("stegocrypt: %w", err)
	}
	padded := padToBlock(data)
	iv := NonceFromDeviceID(deviceID)
	out := make([]byte, len(padded))
	cipher.NewCBCEncrypter(block, iv[:]).CryptBlocks(out, padded)
	return out, nil
}

// DecryptCBC reverses EncryptCBC. originalLen trims the block padding.
func DecryptCBC(key Key, deviceID string, ciphertext []byte, originalLen int) ([]byte, error) {
	if deviceID == "" {
		return nil, ErrEmptyDeviceID
	}
	if len(ciphertext)%aes.BlockSize != 0 {
		return nil, errors.New("stegocrypt: ciphertext not block aligned")
	}
	if originalLen < 0 || originalLen > len(ciphertext) {
		return nil, errors.New("stegocrypt: original length out of range")
	}
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, fmt.Errorf("stegocrypt: %w", err)
	}
	iv := NonceFromDeviceID(deviceID)
	out := make([]byte, len(ciphertext))
	cipher.NewCBCDecrypter(block, iv[:]).CryptBlocks(out, ciphertext)
	return out[:originalLen], nil
}

func padToBlock(data []byte) []byte {
	n := len(data)
	padded := n + (aes.BlockSize-n%aes.BlockSize)%aes.BlockSize
	out := make([]byte, padded)
	copy(out, data)
	return out
}
