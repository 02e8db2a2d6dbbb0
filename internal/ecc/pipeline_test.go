package ecc

import (
	"bytes"
	"testing"

	"invisiblebits/internal/rng"
)

// Equivalence suite for the word-parallel decode paths: every fast path
// (LUT Hamming, bit-sliced repetition majority, cached-permutation
// interleave, the zero-alloc Pipeline, the erasure fast paths) is
// compared against the retained scalar decoders in scalar.go over random
// messages, random corruption, and random erasure masks. Message sizes
// deliberately straddle the word-parallel boundaries: 1–9 bytes exercise
// the pure tail loops, 63/64/65 the 8-byte word edge, 257 a long run
// with an odd tail.

var equivSizes = []int{1, 2, 3, 7, 8, 9, 16, 63, 64, 65, 257}

// errStr folds an error to a comparable string ("" for nil).
func errStr(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// checkDecodeAgreement runs one payload through codec.Decode (fast
// path), DecodeScalar (oracle) and Pipeline.DecodeInto, and fails unless
// all three agree on both output bytes and error.
func checkDecodeAgreement(t *testing.T, name string, p *Pipeline, payload []byte, msgBytes int) {
	t.Helper()
	want, wantErr := DecodeScalar(p.Codec(), payload, msgBytes)
	got, gotErr := p.Codec().Decode(payload, msgBytes)
	if errStr(gotErr) != errStr(wantErr) {
		t.Fatalf("%s/%dB: Decode err %q, scalar err %q", name, msgBytes, errStr(gotErr), errStr(wantErr))
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s/%dB: Decode disagrees with scalar", name, msgBytes)
	}
	dst := make([]byte, msgBytes)
	pipeErr := p.DecodeInto(dst, payload, msgBytes)
	if errStr(pipeErr) != errStr(wantErr) {
		t.Fatalf("%s/%dB: pipeline err %q, scalar err %q", name, msgBytes, errStr(pipeErr), errStr(wantErr))
	}
	if wantErr == nil && !bytes.Equal(dst, want) {
		t.Fatalf("%s/%dB: pipeline output disagrees with scalar", name, msgBytes)
	}
}

// TestPipelineMatchesScalarCodewords: valid codewords with random bit
// corruption (both in- and out-of-budget error weights — equivalence
// must hold even when decoding garbage) decode identically through the
// fast paths and the scalar oracle.
func TestPipelineMatchesScalarCodewords(t *testing.T) {
	src := rng.NewSource(0xe1e0)
	for _, pc := range propertyCases(t) {
		p := NewPipeline(pc.codec)
		for _, msgBytes := range equivSizes {
			for trial := 0; trial < 8; trial++ {
				msg := make([]byte, msgBytes)
				src.Bytes(msg)
				coded, err := pc.codec.Encode(msg)
				if err != nil {
					t.Fatalf("%s/%dB: encode: %v", pc.name, msgBytes, err)
				}
				// Flip 0..12% of coded bits, uniformly placed.
				flips := src.Intn(len(coded) + 1)
				for f := 0; f < flips; f++ {
					bit := src.Intn(len(coded) * 8)
					coded[bit/8] ^= 1 << (bit % 8)
				}
				checkDecodeAgreement(t, pc.name, p, coded, msgBytes)
			}
		}
	}
}

// TestPipelineMatchesScalarGarbage: arbitrary random payloads (not
// codewords at all) still decode bit-identically — the fast paths may
// never diverge on any input.
func TestPipelineMatchesScalarGarbage(t *testing.T) {
	src := rng.NewSource(0xe1e1)
	for _, pc := range propertyCases(t) {
		p := NewPipeline(pc.codec)
		for _, msgBytes := range equivSizes {
			payload := make([]byte, pc.codec.EncodedLen(msgBytes))
			for trial := 0; trial < 4; trial++ {
				src.Bytes(payload)
				checkDecodeAgreement(t, pc.name, p, payload, msgBytes)
			}
		}
	}
}

// TestPipelineMatchesScalarErrors: wrong-shaped payloads produce the
// same error through every path, including nested stacks where the
// failing stage is inside a Composite or Interleaver.
func TestPipelineMatchesScalarErrors(t *testing.T) {
	for _, pc := range propertyCases(t) {
		p := NewPipeline(pc.codec)
		right := pc.codec.EncodedLen(8)
		for _, wrong := range []int{0, 1, right - 1, right + 1, 2 * right} {
			if wrong == right || wrong < 0 {
				continue
			}
			checkDecodeAgreement(t, pc.name, p, make([]byte, wrong), 8)
		}
	}
	// Degenerate interleaver depth errors must match too, bare and nested.
	for _, c := range []Codec{
		Interleaver{Depth: 0, Next: Identity{}},
		Composite{Outer: Hamming74{}, Inner: Interleaver{Depth: -3, Next: Identity{}}},
	} {
		checkDecodeAgreement(t, "bad-depth", NewPipeline(c), make([]byte, 16), 4)
	}
}

// refHammingEncode is an independent per-bit reference for the Hamming
// encoder: nibble → codeword via encodeNibble, emitted LSB-first.
func refHammingEncode(msg []byte) []byte {
	out := make([]byte, Hamming74{}.EncodedLen(len(msg)))
	bit := 0
	for _, b := range msg {
		for _, nib := range []byte{b & 0x0F, b >> 4} {
			cw := encodeNibble(nib)
			for k := 0; k < 7; k++ {
				setBit(out, bit, cw>>k&1)
				bit++
			}
		}
	}
	return out
}

// TestHammingEncodeMatchesReference: the LUT encoder emits the exact
// bit stream of the per-bit reference.
func TestHammingEncodeMatchesReference(t *testing.T) {
	src := rng.NewSource(0xe1e2)
	for _, msgBytes := range equivSizes {
		msg := make([]byte, msgBytes)
		src.Bytes(msg)
		got, err := Hamming74{}.Encode(msg)
		if err != nil {
			t.Fatal(err)
		}
		if want := refHammingEncode(msg); !bytes.Equal(got, want) {
			t.Fatalf("%dB: LUT encode diverges from per-bit reference", msgBytes)
		}
	}
}

// TestInterleaverEncodeMatchesReference: the gather-based encoder
// produces the same bit permutation as a per-bit scatter through the
// forward table (out bit fwd[i] = lin bit i — the original definition).
func TestInterleaverEncodeMatchesReference(t *testing.T) {
	src := rng.NewSource(0xe1e3)
	for _, depth := range []int{1, 2, 7, 8, 64, 1000} {
		il := Interleaver{Depth: depth, Next: Identity{}}
		for _, msgBytes := range []int{1, 8, 65} {
			msg := make([]byte, msgBytes)
			src.Bytes(msg)
			got, err := il.Encode(msg)
			if err != nil {
				t.Fatal(err)
			}
			n := msgBytes * 8
			fwd := permFor(depth, n).fwd
			want := make([]byte, msgBytes)
			for i := 0; i < n; i++ {
				setBit(want, int(fwd[i]), getBit(msg, i))
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("depth=%d/%dB: gather encode diverges from scatter reference", depth, msgBytes)
			}
		}
	}
}

// TestErasureMatchesScalar: the erasure fast paths (chunked Hamming
// erasure LUT, permutation-cached interleave) agree with the scalar
// oracle on message bytes, unresolved mask and error for random
// payloads under masks of every density, including all-erased and
// none-erased.
func TestErasureMatchesScalar(t *testing.T) {
	src := rng.NewSource(0xe1e4)
	densities := []float64{0, 0.05, 0.3, 0.7, 1}
	for _, pc := range erasureCases(t) {
		dec := pc.codec.(ErasureDecoder)
		for _, msgBytes := range []int{1, 3, 8, 9, 64, 65} {
			payload := make([]byte, pc.codec.EncodedLen(msgBytes))
			mask := make([]bool, len(payload)*8)
			for _, density := range densities {
				for trial := 0; trial < 4; trial++ {
					src.Bytes(payload)
					for i := range mask {
						mask[i] = src.Float64() < density
					}
					wantMsg, wantUn, wantErr := DecodeErasureScalar(pc.codec, payload, mask, msgBytes)
					gotMsg, gotUn, gotErr := dec.DecodeErasure(payload, mask, msgBytes)
					if errStr(gotErr) != errStr(wantErr) {
						t.Fatalf("%s/%dB d=%.2f: err %q, scalar %q", pc.name, msgBytes, density, errStr(gotErr), errStr(wantErr))
					}
					if !bytes.Equal(gotMsg, wantMsg) {
						t.Fatalf("%s/%dB d=%.2f: erasure message diverges from scalar", pc.name, msgBytes, density)
					}
					if len(gotUn) != len(wantUn) {
						t.Fatalf("%s/%dB d=%.2f: unresolved length %d vs %d", pc.name, msgBytes, density, len(gotUn), len(wantUn))
					}
					for i := range gotUn {
						if gotUn[i] != wantUn[i] {
							t.Fatalf("%s/%dB d=%.2f: unresolved bit %d diverges", pc.name, msgBytes, density, i)
						}
					}
				}
			}
			// Wrong-shaped masks error identically.
			for _, badLen := range []int{0, len(mask) - 1, len(mask) + 8} {
				_, _, wantErr := DecodeErasureScalar(pc.codec, payload, make([]bool, badLen), msgBytes)
				_, _, gotErr := dec.DecodeErasure(payload, make([]bool, badLen), msgBytes)
				if errStr(gotErr) != errStr(wantErr) {
					t.Fatalf("%s: bad mask err %q, scalar %q", pc.name, errStr(gotErr), errStr(wantErr))
				}
			}
		}
	}
}

// TestPermForCached: the permutation tables are built once per geometry
// and shared — repeated lookups return the same object, and a warm
// lookup performs no allocation.
func TestPermForCached(t *testing.T) {
	a := permFor(8, 4096)
	if b := permFor(8, 4096); a != b {
		t.Fatal("permFor rebuilt a cached table")
	}
	if n := testing.AllocsPerRun(100, func() { permFor(8, 4096) }); n != 0 {
		t.Fatalf("warm permFor allocates %.1f objects/op", n)
	}
	// Distinct geometries get distinct tables.
	if permFor(8, 4096) == permFor(16, 4096) || permFor(8, 4096) == permFor(8, 4104) {
		t.Fatal("permFor conflated distinct geometries")
	}
	// fwd/inv are mutual inverses.
	tab := permFor(7, 1000)
	for i, f := range tab.fwd {
		if tab.inv[f] != int32(i) {
			t.Fatalf("perm table not invertible at bit %d", i)
		}
	}
}

// TestPipelineZeroAlloc: a warm Pipeline.DecodeInto never touches the
// heap, for every codec family — the pipeline half of the warm-decode
// zero-alloc gate (TestArenaDecodeVotesMatchesScalarTail holds the
// full decode tail to the same bound).
func TestPipelineZeroAlloc(t *testing.T) {
	src := rng.NewSource(0xe1e5)
	for _, pc := range propertyCases(t) {
		const msgBytes = 257 // odd tail: worst case for scratch sizing
		p := NewPipeline(pc.codec)
		payload := make([]byte, pc.codec.EncodedLen(msgBytes))
		src.Bytes(payload)
		dst := make([]byte, msgBytes)
		if err := p.DecodeInto(dst, payload, msgBytes); err != nil { // warm tables + scratch
			t.Fatalf("%s: warmup: %v", pc.name, err)
		}
		if n := testing.AllocsPerRun(50, func() {
			if err := p.DecodeInto(dst, payload, msgBytes); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: warm DecodeInto allocates %.1f objects/op", pc.name, n)
		}
	}
}

// oddCodec is an external Codec implementation unknown to the pipeline's
// type switch: it must fall back to the codec's own Decode and still
// agree with DecodeScalar's fallback.
type oddCodec struct{ Identity }

func (oddCodec) Name() string { return "odd" }

// TestPipelineUnknownCodecFallback: unknown codecs decode through their
// own Decode method with identical results, and DecodeInto copies into
// the caller's buffer.
func TestPipelineUnknownCodecFallback(t *testing.T) {
	p := NewPipeline(oddCodec{})
	payload := []byte{0xA5, 0x5A, 0xFF, 0x00}
	checkDecodeAgreement(t, "odd", p, payload, 4)
	// Shape errors propagate through the fallback too.
	checkDecodeAgreement(t, "odd", p, payload, 7)
}

// TestPipelineDstTooSmall: a dst shorter than msgBytes is rejected
// before any decoding happens.
func TestPipelineDstTooSmall(t *testing.T) {
	p := NewPipeline(Identity{})
	if err := p.DecodeInto(make([]byte, 3), make([]byte, 4), 4); err == nil {
		t.Fatal("pipeline accepted short dst")
	}
}

// TestRepMajorityAllCounts: exhaustive check of the bit-sliced majority
// against the integer definition for every copy count the codec admits
// and every vote pattern on a single-byte message.
func TestRepMajorityAllCounts(t *testing.T) {
	for _, n := range []int{3, 5, 7, 9, 15} {
		rep, err := NewRepetition(n)
		if err != nil {
			t.Fatal(err)
		}
		src := rng.NewSource(uint64(0xe1e6 + n))
		payload := make([]byte, n)
		for trial := 0; trial < 200; trial++ {
			src.Bytes(payload)
			got, err := rep.Decode(payload, 1)
			if err != nil {
				t.Fatal(err)
			}
			want, err := rep.DecodeScalar(payload, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("rep%d: sliced majority %02x, scalar %02x on %x", n, got[0], want[0], payload)
			}
		}
	}
}
