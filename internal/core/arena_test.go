package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"reflect"
	"testing"

	"invisiblebits/internal/ecc"
	"invisiblebits/internal/rig"
	"invisiblebits/internal/rng"
	"invisiblebits/internal/stegocrypt"
)

// Equivalence suite for the arena decode tail: every cached/table/
// branchless twin in arena.go is compared against its scalar original
// — the plaintext and every intermediate plane must be bit-identical,
// not merely close.

// TestPayloadFromVotesIntoMatchesScalar: the branchless 8-lane
// hard-decision extract agrees with the scalar comparison for every
// vote value at odd and even capture totals, including the tie count.
func TestPayloadFromVotesIntoMatchesScalar(t *testing.T) {
	src := rng.NewSource(0xa0e0)
	for _, total := range []int{1, 2, 3, 5, 6, 15, 16, 255} {
		// Exhaustive per-value check: one byte per possible count.
		votes := make([]uint16, (total+1+7)/8*8)
		for v := 0; v <= total; v++ {
			votes[v] = uint16(v)
		}
		want := payloadFromVotes(votes, total, len(votes)/8)
		got := make([]byte, len(votes)/8)
		payloadFromVotesInto(got, votes, total)
		if !bytes.Equal(got, want) {
			t.Fatalf("total=%d: exhaustive extract diverges: %x vs %x", total, got, want)
		}
		// Random planes at sizes straddling the unrolled byte loop.
		for _, nBytes := range []int{1, 7, 8, 9, 64, 257} {
			votes := make([]uint16, nBytes*8)
			for i := range votes {
				votes[i] = uint16(src.Intn(total + 1))
			}
			want := payloadFromVotes(votes, total, nBytes)
			got := make([]byte, nBytes)
			payloadFromVotesInto(got, votes, total)
			if !bytes.Equal(got, want) {
				t.Fatalf("total=%d/%dB: extract diverges", total, nBytes)
			}
		}
	}
}

// TestErasureMaskIntoMatchesScalar: the cached integer band reproduces
// the float dead-zone predicate exactly, over totals and dead zones
// including degenerate (0, full-width) bands.
func TestErasureMaskIntoMatchesScalar(t *testing.T) {
	a := NewDecodeArena()
	for _, total := range []int{1, 3, 5, 15, 16, 100} {
		for _, deadZone := range []float64{0, 0.01, 0.1, 1.0 / 7, 0.25, 0.5} {
			votes := make([]uint16, (total+1+7)/8*8)
			for v := 0; v <= total; v++ {
				votes[v] = uint16(v)
			}
			want := erasureMask(votes, total, len(votes), deadZone)
			got := a.erasureMaskInto(votes, total, len(votes), deadZone)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("total=%d dz=%v: mask diverges at count %d", total, deadZone, i)
				}
			}
		}
	}
}

// arenaRecord encodes a message on a fresh rig and returns everything
// the tail-equivalence tests need: the rig, record, options and the
// original message.
func arenaRecord(t *testing.T, serial string, key *stegocrypt.Key) (*Record, []uint16, Options, []byte) {
	t.Helper()
	r := newRig(t, "MSP432P401", serial, 4<<10)
	opts := Options{Codec: paperCodec(t), Key: key}
	msg := make([]byte, 128)
	rng.NewSource(0xa0e1).Bytes(msg)
	rec, err := Encode(r, msg, opts)
	if err != nil {
		t.Fatal(err)
	}
	votes, err := r.SampleVotes(DefaultCaptures)
	if err != nil {
		t.Fatal(err)
	}
	return rec, votes, opts, msg
}

// scalarTail decodes accumulated votes with the original unfused chain:
// allocate-per-stage hard decision, decrypt, codec.Decode,
// VerifyMessage. The ecc suite (FuzzDecodePipeline, pipeline_test.go)
// proves codec.Decode equals the scalar DecodeScalar oracle, so the
// arena is checked against the scalar chain one step removed.
func scalarTail(rec *Record, votes []uint16, total int, opts Options) ([]byte, error) {
	codec := opts.codec()
	codedLen, err := recordCodedLen(rec, codec)
	if err != nil {
		return nil, err
	}
	payload := payloadFromVotes(votes, total, rec.PayloadBytes)
	payload, err = decryptPayload(payload, rec, opts)
	if err != nil {
		return nil, err
	}
	msg, err := codec.Decode(payload[:codedLen], rec.MessageBytes)
	if err != nil {
		return nil, err
	}
	if rec.HasDigest() {
		if err := rec.VerifyMessage(msg, opts.Key); err != nil {
			return nil, err
		}
	}
	return msg, nil
}

// TestArenaDecodeVotesMatchesScalarTail: the arena's fused decode tail
// produces the exact plaintext of the unfused chain, and a warm arena
// decode performs zero heap allocations (warm_decode_zero_alloc in
// BENCH_7.json).
func TestArenaDecodeVotesMatchesScalarTail(t *testing.T) {
	key := stegocrypt.KeyFromPassphrase("arena-tail")
	for _, tc := range []struct {
		name string
		key  *stegocrypt.Key
	}{
		{"encrypted-hmac", &key},
		{"plaintext-crc", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec, votes, opts, msg := arenaRecord(t, "arena-"+tc.name, tc.key)
			want, err := scalarTail(rec, votes, DefaultCaptures, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, msg) {
				t.Fatal("scalar tail failed to recover the message")
			}
			a := NewDecodeArena()
			got, err := a.DecodeVotes(rec, votes, DefaultCaptures, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("arena tail diverges from scalar tail")
			}
			// Package-level convenience copies the message out.
			own, err := DecodeVotes(rec, votes, DefaultCaptures, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(own, want) {
				t.Fatal("package DecodeVotes diverges")
			}
			// Warm steady state: zero allocations.
			if n := testing.AllocsPerRun(50, func() {
				if _, err := a.DecodeVotes(rec, votes, DefaultCaptures, opts); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("warm arena DecodeVotes allocates %.1f objects/op", n)
			}
		})
	}
}

// TestArenaDecodeVotesErrors: the arena tail rejects exactly what the
// scalar chain rejects — codec mismatch, short vote plane, tampered
// digest — with the same sentinel errors.
func TestArenaDecodeVotesErrors(t *testing.T) {
	key := stegocrypt.KeyFromPassphrase("arena-err")
	rec, votes, opts, _ := arenaRecord(t, "arena-errs", &key)
	a := NewDecodeArena()

	if _, err := a.DecodeVotes(nil, votes, DefaultCaptures, opts); err == nil {
		t.Error("nil record accepted")
	}
	if _, err := a.DecodeVotes(rec, votes, DefaultCaptures, Options{Key: &key}); err == nil {
		t.Error("codec mismatch accepted")
	}
	if _, err := a.DecodeVotes(rec, votes[:rec.PayloadBytes*8-8], DefaultCaptures, opts); err == nil {
		t.Error("short vote plane accepted")
	}
	bad := *rec
	bad.Digest = "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"
	if _, err := a.DecodeVotes(&bad, votes, DefaultCaptures, opts); err != ErrDigestMismatch {
		t.Errorf("tampered digest: err = %v, want ErrDigestMismatch", err)
	}
	noKey := opts
	noKey.Key = nil
	if _, err := a.DecodeVotes(rec, votes, DefaultCaptures, noKey); err == nil {
		t.Error("encrypted record without key accepted")
	}
}

// TestArenaVerifyMessageMatchesRecord: the alloc-free verifier and
// Record.VerifyMessage accept and reject the same inputs for both
// digest algorithms, including malformed digests.
func TestArenaVerifyMessageMatchesRecord(t *testing.T) {
	key := stegocrypt.KeyFromPassphrase("verify-twin")
	otherKey := stegocrypt.KeyFromPassphrase("wrong")
	msg := []byte("the digest twin must agree")
	a := NewDecodeArena()

	for _, algo := range []struct {
		name string
		key  *stegocrypt.Key
	}{
		{"crc32", nil},
		{"hmac", &key},
	} {
		rec := &Record{DeviceID: "dev:verify"}
		rec.DigestAlgo, rec.Digest = computeDigest(msg, rec.DeviceID, algo.key)

		cases := []struct {
			name string
			msg  []byte
			key  *stegocrypt.Key
			rec  *Record
		}{
			{"accept", msg, algo.key, rec},
			{"wrong-msg", []byte("not the message"), algo.key, rec},
			{"empty-msg", nil, algo.key, rec},
		}
		if algo.key != nil {
			cases = append(cases,
				struct {
					name string
					msg  []byte
					key  *stegocrypt.Key
					rec  *Record
				}{"wrong-key", msg, &otherKey, rec},
				struct {
					name string
					msg  []byte
					key  *stegocrypt.Key
					rec  *Record
				}{"nil-key", msg, nil, rec},
			)
		}
		trunc := *rec
		trunc.Digest = rec.Digest[:len(rec.Digest)-1]
		cases = append(cases, struct {
			name string
			msg  []byte
			key  *stegocrypt.Key
			rec  *Record
		}{"truncated-digest", msg, algo.key, &trunc})
		none := *rec
		none.Digest = ""
		cases = append(cases, struct {
			name string
			msg  []byte
			key  *stegocrypt.Key
			rec  *Record
		}{"no-digest", msg, algo.key, &none})
		unknown := *rec
		unknown.DigestAlgo = "md5"
		cases = append(cases, struct {
			name string
			msg  []byte
			key  *stegocrypt.Key
			rec  *Record
		}{"unknown-algo", msg, algo.key, &unknown})

		for _, tc := range cases {
			want := tc.rec.VerifyMessage(tc.msg, tc.key)
			got := a.verifyMessage(tc.rec, tc.msg, tc.key)
			if (got == nil) != (want == nil) || (got != nil && want != nil && got.Error() != want.Error()) {
				t.Errorf("%s/%s: arena err %v, record err %v", algo.name, tc.name, got, want)
			}
		}
	}
}

// TestArenaConfidencesMatchScalar: the per-vote-value confidence table
// reproduces payloadConfidences bit-for-bit, plain and encrypted.
func TestArenaConfidencesMatchScalar(t *testing.T) {
	key := stegocrypt.KeyFromPassphrase("conf-twin")
	src := rng.NewSource(0xa0e2)
	for _, encrypted := range []bool{false, true} {
		rec := &Record{DeviceID: "dev:conf", PayloadBytes: 96, MessageBytes: 8, Encrypted: encrypted}
		opts := Options{}
		if encrypted {
			opts.Key = &key
		}
		total := 15
		votes := make([]uint16, rec.PayloadBytes*8+32) // extra cells beyond the payload
		for i := range votes {
			votes[i] = uint16(src.Intn(total + 1))
		}
		want, err := payloadConfidences(votes, total, rec, opts)
		if err != nil {
			t.Fatal(err)
		}
		a := NewDecodeArena()
		got, err := a.confidences(votes, total, rec, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("encrypted=%v: length %d vs %d", encrypted, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("encrypted=%v: confidence %d diverges: %v vs %v", encrypted, i, got[i], want[i])
			}
		}
	}
}

// TestDecodeContextWithArena: Options.Arena routes DecodeContext through
// the fused tail and still recovers the exact message.
func TestDecodeContextWithArena(t *testing.T) {
	r := newRig(t, "MSP432P401", "ctx-arena", 4<<10)
	key := stegocrypt.KeyFromPassphrase("ctx")
	msg := []byte("arena-backed DecodeContext")
	opts := Options{Codec: paperCodec(t), Key: &key}
	rec, err := Encode(r, msg, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Arena = NewDecodeArena()
	got, err := DecodeContext(context.Background(), r, rec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("recovered %q, want %q", got, msg)
	}
}

// erasureOnlyCodec exposes the paper codec's hard and erasure decoders
// but no soft decoder, so a ladder that fails its hard rungs skips soft
// and verifies (or not) on the erasure rung.
type erasureOnlyCodec struct{ inner ecc.Composite }

func (c erasureOnlyCodec) Name() string                { return c.inner.Name() }
func (c erasureOnlyCodec) EncodedLen(msgBytes int) int { return c.inner.EncodedLen(msgBytes) }
func (c erasureOnlyCodec) Encode(msg []byte) ([]byte, error) {
	return c.inner.Encode(msg)
}
func (c erasureOnlyCodec) Decode(payload []byte, msgBytes int) ([]byte, error) {
	return c.inner.Decode(payload, msgBytes)
}
func (c erasureOnlyCodec) Rate() float64 { return c.inner.Rate() }
func (c erasureOnlyCodec) DecodeErasure(payload []byte, erased []bool, msgBytes int) ([]byte, []bool, error) {
	return c.inner.DecodeErasure(payload, erased, msgBytes)
}

// noteMismatch is the rung note ErrDigestMismatch leaves behind.
const noteMismatch = "core: decoded message fails the record's integrity digest"

// pinnedLadders are adaptive-decode outcomes on decayCampaign rigs,
// recorded from the allocate-per-stage decode path before it was
// removed: the SHA-256 of the plaintext ("" when the ladder exhausts)
// and the full DecodeReport. One verifies on each of the hard, soft and
// erasure rungs; one exhausts the ladder.
var pinnedLadders = []struct {
	name    string
	serial  string
	shelf   func(r *rig.Rig) error
	erasure bool // decode with erasureOnlyCodec instead of the paper codec
	sha256  string
	report  DecodeReport
}{
	{
		name:   "hard",
		serial: "arena-ladder",
		shelf:  func(r *rig.Rig) error { return r.ShelveFor(2 * 365 * 24) },
		sha256: "623454244fd5748d666ade1f822b53d0a4c202f52ab6ae7a0035730ce58732e3",
		report: DecodeReport{
			Rungs:                []RungResult{{Name: RungHard, Captures: 3, Verified: true}},
			CapturesSpent:        3,
			Verified:             true,
			VerifiedRung:         RungHard,
			ResidualChannelError: 0.14540816326530612,
		},
	},
	{
		name:   "soft",
		serial: "rel-2",
		shelf:  func(r *rig.Rig) error { return r.ShelveAtFor(2*365*24, 45) },
		sha256: "623454244fd5748d666ade1f822b53d0a4c202f52ab6ae7a0035730ce58732e3",
		report: DecodeReport{
			Rungs: []RungResult{
				{Name: RungHard, Captures: 3, Note: noteMismatch},
				{Name: RungHardMore, Captures: 9, Note: noteMismatch},
				{Name: RungSoft, Captures: 25, Verified: true},
			},
			CapturesSpent:        25,
			Verified:             true,
			VerifiedRung:         RungSoft,
			ResidualChannelError: 0.15407100340136054,
		},
	},
	{
		name:    "erasure",
		serial:  "rel-2",
		shelf:   func(r *rig.Rig) error { return r.ShelveAtFor(2*365*24, 45) },
		erasure: true,
		sha256:  "623454244fd5748d666ade1f822b53d0a4c202f52ab6ae7a0035730ce58732e3",
		report: DecodeReport{
			Rungs: []RungResult{
				{Name: RungHard, Captures: 3, Note: noteMismatch},
				{Name: RungHardMore, Captures: 9, Note: noteMismatch},
				{Name: RungSoft, Captures: 25, Skipped: true, Note: "codec hamming(7,4)+repetition(7) has no soft decoder"},
				{Name: RungErasure, Captures: 25, Verified: true},
			},
			CapturesSpent:        25,
			Verified:             true,
			VerifiedRung:         RungErasure,
			ResidualChannelError: 0.15407100340136054,
			UnresolvedBits:       4,
		},
	},
	{
		name:   "exhausted",
		serial: "rel-4",
		shelf:  func(r *rig.Rig) error { return r.ShelveAtFor(2*365*24, 45) },
		report: DecodeReport{
			Rungs: []RungResult{
				{Name: RungHard, Captures: 3, Note: noteMismatch},
				{Name: RungHardMore, Captures: 9, Note: noteMismatch},
				{Name: RungSoft, Captures: 25, Note: noteMismatch},
				{Name: RungErasure, Captures: 25, Note: noteMismatch},
			},
			CapturesSpent:        25,
			ResidualChannelError: -1,
			UnresolvedBits:       8,
		},
	},
}

// TestDecodeAdaptiveArenaReportIdentical: on hostile rigs, the pooled
// arena (nil Options.Arena) and a caller-owned arena both reproduce the
// pinned plaintext and DecodeReport exactly — which rungs ran, captures
// spent, the verifying rung, ResidualChannelError and UnresolvedBits.
// Arena ownership may change allocation behavior only, never the
// ladder's decisions.
func TestDecodeAdaptiveArenaReportIdentical(t *testing.T) {
	for _, tc := range pinnedLadders {
		for _, mode := range []string{"pooled", "caller-arena"} {
			t.Run(tc.name+"/"+mode, func(t *testing.T) {
				// Same serial ⇒ same device noise, same injector stream:
				// every run observes identical captures.
				r, opts, aopts, msg := decayCampaign(t, tc.serial)
				if tc.erasure {
					opts.Codec = erasureOnlyCodec{paperCodec(t).(ecc.Composite)}
					aopts.Options = opts
				}
				rec, err := Encode(r, msg, opts)
				if err != nil {
					t.Fatal(err)
				}
				if err := tc.shelf(r); err != nil {
					t.Fatal(err)
				}
				if mode == "caller-arena" {
					aopts.Arena = NewDecodeArena()
				}
				got, rep, err := DecodeAdaptive(context.Background(), r, rec, aopts)
				if tc.sha256 == "" {
					if !errors.Is(err, ErrDigestMismatch) {
						t.Fatalf("err = %v, want ErrDigestMismatch", err)
					}
				} else {
					if err != nil {
						t.Fatal(err)
					}
					sum := sha256.Sum256(got)
					if hex.EncodeToString(sum[:]) != tc.sha256 || !bytes.Equal(got, msg) {
						t.Fatal("plaintext diverges from the pinned message")
					}
				}
				if !reflect.DeepEqual(*rep, tc.report) {
					t.Fatalf("report diverges from the pinned ladder:\ngot:  %+v\nwant: %+v", *rep, tc.report)
				}
			})
		}
	}
}

// noInjectorLadders pin adaptive decodes on rigs with no fault injector
// mounted — the capture path every production reveal takes, which no
// pinnedLadders entry reaches — recorded before the receiver decided
// straight from bit-sliced counters: the SHA-256 of the plaintext and
// the full DecodeReport of a fresh carrier that verifies on the hard
// rung, and of a shelved one that escalates to the soft rung.
var noInjectorLadders = []struct {
	name        string
	serial      string
	stressHours float64
	shelfHours  float64 // at 45 °C; 0 decodes fresh
	sha256      string
	report      DecodeReport
}{
	{
		name:   "fresh",
		serial: "pin-fresh",
		sha256: "623454244fd5748d666ade1f822b53d0a4c202f52ab6ae7a0035730ce58732e3",
		report: DecodeReport{
			Rungs:                []RungResult{{Name: RungHard, Captures: 3, Verified: true}},
			CapturesSpent:        3,
			Verified:             true,
			VerifiedRung:         RungHard,
			ResidualChannelError: 0.06887755102040816,
		},
	},
	{
		name:        "shelved",
		serial:      "pin-shelved-10",
		stressHours: 10,
		shelfHours:  550,
		sha256:      "623454244fd5748d666ade1f822b53d0a4c202f52ab6ae7a0035730ce58732e3",
		report: DecodeReport{
			Rungs: []RungResult{
				{Name: RungHard, Captures: 3, Note: noteMismatch},
				{Name: RungHardMore, Captures: 9, Note: noteMismatch},
				{Name: RungSoft, Captures: 25, Verified: true},
			},
			CapturesSpent:        25,
			Verified:             true,
			VerifiedRung:         RungSoft,
			ResidualChannelError: 0.12340561224489796,
		},
	},
}

// TestDecodeAdaptiveNoInjectorPinned: without an injector, pooled and
// caller-owned arenas reproduce the pinned plaintext and DecodeReport.
func TestDecodeAdaptiveNoInjectorPinned(t *testing.T) {
	for _, tc := range noInjectorLadders {
		for _, mode := range []string{"pooled", "caller-arena"} {
			t.Run(tc.name+"/"+mode, func(t *testing.T) {
				r := newRig(t, "MSP432P401", tc.serial, 4<<10)
				key := stegocrypt.KeyFromPassphrase("no-injector")
				opts := Options{Codec: paperCodec(t), Key: &key, StressHours: tc.stressHours}
				msg := make([]byte, 192)
				rng.NewSource(2022).Bytes(msg)
				rec, err := Encode(r, msg, opts)
				if err != nil {
					t.Fatal(err)
				}
				if tc.shelfHours > 0 {
					if err := r.ShelveAtFor(tc.shelfHours, 45); err != nil {
						t.Fatal(err)
					}
				}
				aopts := AdaptiveOptions{Options: opts}
				if mode == "caller-arena" {
					aopts.Arena = NewDecodeArena()
				}
				got, rep, err := DecodeAdaptive(context.Background(), r, rec, aopts)
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(got)
				if hex.EncodeToString(sum[:]) != tc.sha256 || !bytes.Equal(got, msg) {
					t.Fatalf("plaintext diverges from the pinned message (sha256 %x)", sum)
				}
				if !reflect.DeepEqual(*rep, tc.report) {
					t.Fatalf("report diverges from the pinned ladder:\ngot:  %#v\nwant: %#v", *rep, tc.report)
				}
			})
		}
	}
}

// TestDecodeAdaptiveResidualIgnoresUnusedKey: a key supplied for an
// unencrypted record changes nothing. Twin rigs (same serial, so the
// same silicon and noise) hold the same plaintext CRC record; decoding
// one with a key and the other without must give equal reports,
// ResidualChannelError included.
func TestDecodeAdaptiveResidualIgnoresUnusedKey(t *testing.T) {
	key := stegocrypt.KeyFromPassphrase("unused")
	var reports [2]*DecodeReport
	for i, k := range []*stegocrypt.Key{nil, &key} {
		c := encodePooledCarrier(t, "residual-key-twin", nil)
		aopts := AdaptiveOptions{Options: c.opts}
		aopts.Key = k
		got, rep, err := DecodeAdaptive(context.Background(), c.r, c.rec, aopts)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, c.msg) {
			t.Fatal("wrong plaintext")
		}
		reports[i] = rep
	}
	if reports[0].ResidualChannelError < 0 {
		t.Fatalf("no residual reported: %+v", *reports[0])
	}
	if !reflect.DeepEqual(*reports[0], *reports[1]) {
		t.Fatalf("a key for an unencrypted record changes the report:\nwithout: %+v\nwith:    %+v", *reports[0], *reports[1])
	}
}
