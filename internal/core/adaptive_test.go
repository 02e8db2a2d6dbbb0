package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"invisiblebits/internal/device"
	"invisiblebits/internal/ecc"
	"invisiblebits/internal/faults"
	"invisiblebits/internal/rig"
	"invisiblebits/internal/rng"
	"invisiblebits/internal/sram"
	"invisiblebits/internal/stegocrypt"
)

// decayCampaign is the shared hostile-channel configuration for the
// adaptive-decode tests: the paper's MSP432 with a 4 KB sample, the
// Fig. 13 codec, a long 14 h soak (extra margin that survives shelf
// decay), and a fault injector marking 14% of cells weak — per-capture
// coin flips that hard majority voting cannot outvote but soft
// combining and the erasure dead zone neutralize.
func decayCampaign(t *testing.T, serial string) (*rig.Rig, Options, AdaptiveOptions, []byte) {
	t.Helper()
	m, err := device.ByName("MSP432P401")
	if err != nil {
		t.Fatal(err)
	}
	d, err := device.New(m, serial, device.WithSRAMLimit(4<<10))
	if err != nil {
		t.Fatal(err)
	}
	r := rig.New(d, rig.WithInjector(faults.New(faults.Profile{Seed: 7, WeakFrac: 0.14}, d.Serial)))
	key := stegocrypt.KeyFromPassphrase("retention-sweep")
	opts := Options{Codec: paperCodec(t), Key: &key, StressHours: 14}
	msg := make([]byte, 192)
	rng.NewSource(2022).Bytes(msg)
	return r, opts, AdaptiveOptions{Options: opts}, msg
}

func TestDecodeAdaptiveFreshStopsAtFirstRung(t *testing.T) {
	// On a healthy imprint the ladder must not escalate: the cheap
	// first rung decodes, the digest verifies, and the capture budget
	// spent is the initial burst only.
	r := newRig(t, "MSP432P401", "adaptive-fresh", 4<<10)
	key := stegocrypt.KeyFromPassphrase("adaptive")
	opts := Options{Codec: paperCodec(t), Key: &key}
	msg := []byte("cheap when the channel is healthy")

	rec, err := Encode(r, msg, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, rep, err := DecodeAdaptive(context.Background(), r, rec, AdaptiveOptions{Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(msg) {
		t.Fatalf("message = %q, want %q", got, msg)
	}
	if !rep.Verified || rep.VerifiedRung != RungHard {
		t.Fatalf("report = %+v, want verified at %q", rep, RungHard)
	}
	if rep.Escalated() {
		t.Fatalf("fresh decode escalated: %+v", rep)
	}
	if want := DefaultInitialCaptures; rep.CapturesSpent != want {
		t.Fatalf("CapturesSpent = %d, want %d", rep.CapturesSpent, want)
	}
	if rep.ResidualChannelError < 0 {
		t.Fatalf("ResidualChannelError = %v, want measured", rep.ResidualChannelError)
	}
}

func TestDecodeAdaptiveRecoversWhereFixedEffortFails(t *testing.T) {
	// The acceptance scenario: a message endures two simulated years of
	// hot shelf storage on a device with injected weak cells. The
	// paper's fixed five-capture hard decode returns garbage, but the
	// self-verifying ladder escalates — more captures, then soft
	// combining over the accumulated votes — and recovers the exact
	// message, machine-checked against the record's digest.
	ctx := context.Background()
	r, opts, aopts, msg := decayCampaign(t, "rel-2")

	rec, err := EncodeContext(ctx, r, msg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.ShelveAtFor(2*365*24, 45); err != nil {
		t.Fatal(err)
	}

	// Fixed-effort decode: either a mechanical decode failure or a
	// wrong message that the digest rejects.
	hard, herr := DecodeContext(ctx, r, rec, opts)
	if herr == nil && rec.VerifyMessage(hard, opts.Key) == nil {
		t.Fatal("fixed-capture hard decode unexpectedly verified on the decayed channel")
	}

	got, rep, err := DecodeAdaptive(ctx, r, rec, aopts)
	if err != nil {
		t.Fatalf("DecodeAdaptive: %v (report %+v)", err, rep)
	}
	if string(got) != string(msg) {
		t.Fatalf("recovered %d bytes != original", len(got))
	}
	if !rep.Verified {
		t.Fatalf("report not verified: %+v", rep)
	}
	if !rep.Escalated() {
		t.Fatalf("ladder did not escalate: %+v", rep)
	}
	if rep.CapturesSpent <= rep.Rungs[0].Captures {
		t.Fatalf("CapturesSpent = %d, want more than the initial rung's %d",
			rep.CapturesSpent, rep.Rungs[0].Captures)
	}
	if rep.VerifiedRung == RungHard {
		t.Fatalf("verified on the first rung despite hard-decode failure: %+v", rep)
	}
	if rep.ResidualChannelError <= 0 {
		t.Fatalf("ResidualChannelError = %v, want > 0 on a decayed channel", rep.ResidualChannelError)
	}
	// The first rung must be on the record as a failed attempt.
	if len(rep.Rungs) < 2 || rep.Rungs[0].Verified || rep.Rungs[0].Note == "" {
		t.Fatalf("first rung should record its failure: %+v", rep.Rungs)
	}
}

func TestDecodeAdaptiveExhaustionReturnsReport(t *testing.T) {
	// When even the deepest rung cannot verify, the caller still gets
	// the full report — how many rungs ran and captures were burned —
	// alongside ErrDigestMismatch.
	ctx := context.Background()
	r, opts, aopts, msg := decayCampaign(t, "rel-1")

	rec, err := EncodeContext(ctx, r, msg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.ShelveAtFor(2*365*24, 45); err != nil {
		t.Fatal(err)
	}
	if hard, herr := DecodeContext(ctx, r, rec, opts); herr == nil && rec.VerifyMessage(hard, opts.Key) == nil {
		t.Fatal("hard decode unexpectedly verified")
	}

	_, rep, err := DecodeAdaptive(ctx, r, rec, aopts)
	if !errors.Is(err, ErrDigestMismatch) {
		t.Fatalf("err = %v, want ErrDigestMismatch", err)
	}
	if rep == nil || len(rep.Rungs) < 3 {
		t.Fatalf("exhaustion report too thin: %+v", rep)
	}
	if rep.Verified || rep.VerifiedRung != "" {
		t.Fatalf("exhausted report claims verification: %+v", rep)
	}
	if rep.CapturesSpent < DefaultMaxAdaptiveCaptures-1 {
		t.Fatalf("CapturesSpent = %d, want the full budget spent before giving up", rep.CapturesSpent)
	}
}

func TestDecodeAdaptiveRequiresDigest(t *testing.T) {
	r := newRig(t, "MSP432P401", "adaptive-nodigest", 4<<10)
	opts := Options{Codec: paperCodec(t)}
	rec, err := Encode(r, []byte("no digest, no ladder"), opts)
	if err != nil {
		t.Fatal(err)
	}
	rec.Digest, rec.DigestAlgo = "", "" // a record from before digests existed
	if _, _, err := DecodeAdaptive(context.Background(), r, rec, AdaptiveOptions{Options: opts}); !errors.Is(err, ErrNoDigest) {
		t.Fatalf("err = %v, want ErrNoDigest", err)
	}
}

// hardOnlyCodec wraps Identity but exposes only the base Codec
// interface — no soft or erasure decoding — so the ladder's skip path
// is exercised.
type hardOnlyCodec struct{ inner ecc.Identity }

func (c hardOnlyCodec) Name() string                { return c.inner.Name() }
func (c hardOnlyCodec) EncodedLen(msgBytes int) int { return c.inner.EncodedLen(msgBytes) }
func (c hardOnlyCodec) Encode(msg []byte) ([]byte, error) {
	return c.inner.Encode(msg)
}
func (c hardOnlyCodec) Decode(payload []byte, msgBytes int) ([]byte, error) {
	return c.inner.Decode(payload, msgBytes)
}
func (c hardOnlyCodec) Rate() float64 { return c.inner.Rate() }

func TestDecodeAdaptiveSkipsRungsWithoutCodecSupport(t *testing.T) {
	// On a record forced past the hard rungs, the soft/erasure rungs
	// must be marked skipped for a codec that cannot serve them, rather
	// than crashing or silently pretending they ran.
	r := newRig(t, "MSP432P401", "adaptive-skip", 2<<10)
	opts := Options{Codec: hardOnlyCodec{}}
	msg := []byte("identity codec")
	rec, err := Encode(r, msg, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the digest so every rung fails verification and the
	// ladder is forced to walk the whole schedule.
	rec.Digest = "00000000"
	_, rep, err := DecodeAdaptive(context.Background(), r, rec, AdaptiveOptions{Options: opts})
	if !errors.Is(err, ErrDigestMismatch) {
		t.Fatalf("err = %v, want ErrDigestMismatch", err)
	}
	var skipped int
	for _, rung := range rep.Rungs {
		if rung.Skipped {
			skipped++
		}
	}
	if skipped != 2 {
		t.Fatalf("skipped rungs = %d, want soft and erasure skipped: %+v", skipped, rep.Rungs)
	}
}

func TestAdaptiveSoftDecodeUnderTransientLinkFaults(t *testing.T) {
	// A flaky debugger link drops capture operations mid-burst. The
	// retry policy inside the ladder's sampler must ride through the
	// transients so the soft rungs still accumulate their full vote
	// budget and the message verifies.
	m, err := device.ByName("MSP432P401")
	if err != nil {
		t.Fatal(err)
	}
	d, err := device.New(m, "adaptive-flaky-link", device.WithSRAMLimit(4<<10))
	if err != nil {
		t.Fatal(err)
	}
	r := rig.New(d, rig.WithInjector(faults.New(faults.Profile{
		Seed:         11,
		LinkDropRate: 0.15,
		WeakFrac:     0.10,
	}, d.Serial)))
	key := stegocrypt.KeyFromPassphrase("flaky-link")
	opts := Options{Codec: paperCodec(t), Key: &key}
	msg := []byte("soft decoding must survive a flaky debugger link")

	rec, err := Encode(r, msg, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Direct soft decode through the same flaky link.
	soft := opts
	soft.Soft = true
	got, err := Decode(r, rec, soft)
	if err != nil {
		t.Fatalf("soft decode under link faults: %v", err)
	}
	if string(got) != string(msg) {
		t.Fatalf("soft decode returned wrong message")
	}

	// And the full ladder, which samples in several bursts.
	got, rep, err := DecodeAdaptive(context.Background(), r, rec, AdaptiveOptions{Options: opts})
	if err != nil {
		t.Fatalf("DecodeAdaptive under link faults: %v", err)
	}
	if string(got) != string(msg) || !rep.Verified {
		t.Fatalf("ladder under link faults: msg ok=%v, report %+v", string(got) == string(msg), rep)
	}
}

func TestDecodeAtWrongTemperature(t *testing.T) {
	// Decode with the chamber deliberately off-nominal. Power-on noise
	// scales with √T, so a hot readout is strictly noisier — but the
	// imprint lives in threshold-voltage shifts an order of magnitude
	// above thermal noise, so a healthy record still verifies. The test
	// pins both halves: the option is honored (chamber really is hot
	// during capture) and the decode still lands.
	r := newRig(t, "MSP432P401", "hot-decode", 4<<10)
	key := stegocrypt.KeyFromPassphrase("hot")
	opts := Options{Codec: paperCodec(t), Key: &key}
	msg := []byte("readable even from a hot chamber")
	rec, err := Encode(r, msg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.ShelveAtFor(30*24, 45); err != nil { // a month in hot storage
		t.Fatal(err)
	}

	hot := opts
	hot.DecodeTempC = 85
	got, err := Decode(r, rec, hot)
	if err != nil {
		t.Fatalf("decode at 85°C: %v", err)
	}
	if string(got) != string(msg) {
		t.Fatalf("hot decode returned wrong message")
	}
	if err := rec.VerifyMessage(got, opts.Key); err != nil {
		t.Fatalf("hot decode digest: %v", err)
	}
	if c := r.Conditions(); c.TempC != 85 {
		t.Fatalf("chamber at %.0f°C after hot decode, want the 85°C override honored", c.TempC)
	}

	// Nominal decode resets the chamber back to the datasheet point.
	if _, err := Decode(r, rec, opts); err != nil {
		t.Fatal(err)
	}
	if c, want := r.Conditions(), r.Device().Model.TNomC; c.TempC != want {
		t.Fatalf("chamber at %.0f°C after nominal decode, want %.0f", c.TempC, want)
	}
}

// TestDecodeAdaptiveMaxCapturesCeiling: the accumulated votes are
// counted in at most sram.MaxCaptures. A budget of exactly 65535
// captures runs the whole ladder (a damaged digest forces every rung)
// and accumulates to the ceiling; 65537 is rejected with the typed
// error before the first capture.
func TestDecodeAdaptiveMaxCapturesCeiling(t *testing.T) {
	r := newRig(t, "MSP432P401", "capture-ceiling", 128)
	key := stegocrypt.KeyFromPassphrase("ceiling")
	opts := Options{Codec: paperCodec(t), Key: &key}
	rec, err := Encode(r, []byte("ceil"), opts)
	if err != nil {
		t.Fatal(err)
	}
	before := r.Device().SRAM.PowerOnCount()
	events := len(r.Events())
	_, rep, err := DecodeAdaptive(context.Background(), r, rec, AdaptiveOptions{Options: opts, MaxCaptures: sram.MaxCaptures + 2})
	var cce *sram.CaptureCountError
	if !errors.As(err, &cce) || cce.Captures != sram.MaxCaptures+2 {
		t.Fatalf("MaxCaptures %d: err = %v, want *sram.CaptureCountError", sram.MaxCaptures+2, err)
	}
	if rep != nil || r.Device().SRAM.PowerOnCount() != before || len(r.Events()) != events {
		t.Fatal("a rejected capture budget touched the rig")
	}

	damaged := *rec
	damaged.Digest = strings.Repeat("0", len(rec.Digest))
	aopts := AdaptiveOptions{Options: opts, InitialCaptures: sram.MaxCaptures / 3, MaxCaptures: sram.MaxCaptures}
	_, rep, err = DecodeAdaptive(context.Background(), r, &damaged, aopts)
	if !errors.Is(err, ErrDigestMismatch) {
		t.Fatalf("err = %v, want ErrDigestMismatch", err)
	}
	if rep.CapturesSpent != sram.MaxCaptures || len(rep.Rungs) != 4 || rep.Rungs[1].Captures != sram.MaxCaptures {
		t.Fatalf("ladder did not accumulate to %d captures: %+v", sram.MaxCaptures, *rep)
	}
	if got := r.Device().SRAM.PowerOnCount() - before; got < sram.MaxCaptures {
		t.Fatalf("ladder ran %d power-ons, want at least %d", got, sram.MaxCaptures)
	}
}
