package stegocrypt

import (
	"bytes"
	"testing"

	"invisiblebits/internal/rng"
	"invisiblebits/internal/stats"
)

func TestStreamRoundTrip(t *testing.T) {
	key := KeyFromPassphrase("correct horse")
	msg := []byte("meet at the border crossing at dawn")
	ct, err := StreamXOR(key, "MSP432P401-0001", msg)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(ct, msg) {
		t.Fatal("ciphertext equals plaintext")
	}
	pt, err := StreamXOR(key, "MSP432P401-0001", ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pt, msg) {
		t.Fatal("round trip failed")
	}
}

func TestStreamErrorNeutrality(t *testing.T) {
	// §4.1: a stream cipher is "error-neutral, i.e., error bits in the
	// ciphertext are exactly the error bits in the plaintext".
	key := KeyFromPassphrase("k")
	msg := make([]byte, 4096)
	rng.NewSource(1).Bytes(msg)
	ct, err := StreamXOR(key, "dev", msg)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a known set of ciphertext bits.
	corrupted := make([]byte, len(ct))
	copy(corrupted, ct)
	flips := []int{0, 13, 100, 8191, 32767}
	for _, b := range flips {
		corrupted[b/8] ^= 1 << (b % 8)
	}
	pt, err := StreamXOR(key, "dev", corrupted)
	if err != nil {
		t.Fatal(err)
	}
	if d := stats.HammingDistance(pt, msg); d != len(flips) {
		t.Fatalf("plaintext error bits = %d, want exactly %d", d, len(flips))
	}
	// And exactly at the same positions.
	for _, b := range flips {
		if (pt[b/8]^msg[b/8])&(1<<(b%8)) == 0 {
			t.Fatalf("flip at bit %d did not propagate in place", b)
		}
	}
}

func TestCBCErrorAmplification(t *testing.T) {
	// §4.1: "AES-CBC turns an error rate of 0.8% into an error rate of 50%
	// as the first erroneous bit causes the output of all subsequent
	// blocks to become random."
	key := KeyFromPassphrase("k")
	msg := make([]byte, 64<<10)
	rng.NewSource(2).Bytes(msg)

	ctCBC, err := EncryptCBC(key, "dev", msg)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.NewSource(3)
	corrupted := make([]byte, len(ctCBC))
	copy(corrupted, ctCBC)
	const channelBER = 0.008
	for i := 0; i < len(corrupted)*8; i++ {
		if src.Float64() < channelBER {
			corrupted[i/8] ^= 1 << (i % 8)
		}
	}
	ptCBC, err := DecryptCBC(key, "dev", corrupted, len(msg))
	if err != nil {
		t.Fatal(err)
	}
	berCBC := stats.BitErrorRate(ptCBC, msg)
	// CBC decryption randomizes each plaintext block whose ciphertext
	// block was hit (plus targeted flips in the next). At 0.8% BER,
	// P(128-bit block hit) ≈ 64%, so plaintext BER ≈ 0.32 — a ~40×
	// amplification. (The paper's "50%" describes the corrupted-region
	// error rate; the catastrophic blow-up is the point.)
	if berCBC < 0.25 {
		t.Errorf("CBC plaintext error = %v, want catastrophic (≥0.25)", berCBC)
	}
	if berCBC < 20*channelBER {
		t.Errorf("CBC amplification only %vx", berCBC/channelBER)
	}

	// Same channel through CTR stays at the channel error rate.
	ctCTR, _ := StreamXOR(key, "dev", msg)
	src = rng.NewSource(3)
	corruptedCTR := make([]byte, len(ctCTR))
	copy(corruptedCTR, ctCTR)
	for i := 0; i < len(corruptedCTR)*8; i++ {
		if src.Float64() < channelBER {
			corruptedCTR[i/8] ^= 1 << (i % 8)
		}
	}
	ptCTR, _ := StreamXOR(key, "dev", corruptedCTR)
	berCTR := stats.BitErrorRate(ptCTR, msg)
	if berCTR > 2*channelBER {
		t.Errorf("CTR plaintext error = %v, want ≈%v", berCTR, channelBER)
	}
}

func TestPerDeviceNonces(t *testing.T) {
	// Footnote 4: "even the same messages produce different payloads".
	key := KeyFromPassphrase("k")
	msg := make([]byte, 1024)
	a, _ := StreamXOR(key, "device-A", msg)
	b, _ := StreamXOR(key, "device-B", msg)
	if ber := stats.BitErrorRate(a, b); ber < 0.4 {
		t.Errorf("keystreams across devices too similar: %v", ber)
	}
}

func TestCiphertextLooksRandom(t *testing.T) {
	// §6: encrypted payloads must match a random function — high byte
	// entropy and ~50% bias even for highly structured plaintext.
	key := KeyFromPassphrase("k")
	msg := bytes.Repeat([]byte("AAAA"), 16<<10/4)
	ct, _ := StreamXOR(key, "dev", msg)
	if h := stats.ByteEntropy(ct); h < 7.9 {
		t.Errorf("ciphertext entropy = %v bits", h)
	}
	if b := stats.MeanBias(ct); b < 0.49 || b > 0.51 {
		t.Errorf("ciphertext bias = %v", b)
	}
}

func TestEmptyDeviceIDRejected(t *testing.T) {
	key := KeyFromPassphrase("k")
	if _, err := StreamXOR(key, "", []byte{1}); err != ErrEmptyDeviceID {
		t.Errorf("StreamXOR: %v", err)
	}
	if _, err := EncryptCBC(key, "", []byte{1}); err != ErrEmptyDeviceID {
		t.Errorf("EncryptCBC: %v", err)
	}
	if _, err := DecryptCBC(key, "", make([]byte, 16), 16); err != ErrEmptyDeviceID {
		t.Errorf("DecryptCBC: %v", err)
	}
}

func TestCBCRoundTripAndPadding(t *testing.T) {
	key := KeyFromPassphrase("p")
	for _, n := range []int{0, 1, 15, 16, 17, 100} {
		msg := make([]byte, n)
		rng.NewSource(uint64(n)).Bytes(msg)
		ct, err := EncryptCBC(key, "dev", msg)
		if err != nil {
			t.Fatal(err)
		}
		if len(ct) != PaddedLenCBC(n) {
			t.Fatalf("n=%d: ct len %d, want %d", n, len(ct), PaddedLenCBC(n))
		}
		pt, err := DecryptCBC(key, "dev", ct, n)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pt, msg) {
			t.Fatalf("n=%d: CBC round trip failed", n)
		}
	}
}

func TestDecryptCBCValidation(t *testing.T) {
	key := KeyFromPassphrase("p")
	if _, err := DecryptCBC(key, "dev", make([]byte, 15), 10); err == nil {
		t.Error("unaligned ciphertext accepted")
	}
	if _, err := DecryptCBC(key, "dev", make([]byte, 16), 17); err == nil {
		t.Error("out-of-range original length accepted")
	}
}

func TestKeyDerivationStable(t *testing.T) {
	if KeyFromPassphrase("x") != KeyFromPassphrase("x") {
		t.Error("key derivation unstable")
	}
	if KeyFromPassphrase("x") == KeyFromPassphrase("y") {
		t.Error("distinct passphrases collide")
	}
	if NonceFromDeviceID("a") == NonceFromDeviceID("b") {
		t.Error("distinct device IDs collide")
	}
}

// TestKeyStreamMatchesStreamXOR: the in-place keystream is StreamXOR
// applied to zeros, at lengths on and off the AES block, whatever dst
// held before; an empty device ID is rejected.
func TestKeyStreamMatchesStreamXOR(t *testing.T) {
	key := KeyFromPassphrase("keystream")
	for _, n := range []int{0, 1, 15, 16, 17, 4096, 64<<10 + 3} {
		want, err := StreamXOR(key, "dev-ks", make([]byte, n))
		if err != nil {
			t.Fatal(err)
		}
		got := bytes.Repeat([]byte{0xa5}, n)
		if err := KeyStream(key, "dev-ks", got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("n=%d: KeyStream differs from StreamXOR of zeros", n)
		}
	}
	if err := KeyStream(key, "", make([]byte, 16)); err != ErrEmptyDeviceID {
		t.Fatalf("empty device ID: got %v, want ErrEmptyDeviceID", err)
	}
}

func BenchmarkStreamXOR64KB(b *testing.B) {
	key := KeyFromPassphrase("bench")
	msg := make([]byte, 64<<10)
	b.SetBytes(int64(len(msg)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := StreamXOR(key, "dev", msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKeyStream64KB(b *testing.B) {
	key := KeyFromPassphrase("bench")
	buf := make([]byte, 64<<10)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := KeyStream(key, "dev", buf); err != nil {
			b.Fatal(err)
		}
	}
}
