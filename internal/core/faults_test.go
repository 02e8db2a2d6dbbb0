package core

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"invisiblebits/internal/device"
	"invisiblebits/internal/faults"
	"invisiblebits/internal/rig"
	"invisiblebits/internal/stegocrypt"
)

func newFaultyCoreRig(t *testing.T, serial string, p faults.Profile) *rig.Rig {
	t.Helper()
	m, err := device.ByName("MSP432P401")
	if err != nil {
		t.Fatal(err)
	}
	d, err := device.New(m, serial, device.WithSRAMLimit(8<<10))
	if err != nil {
		t.Fatal(err)
	}
	return rig.New(d, rig.WithInjector(faults.New(p, d.Serial)))
}

func TestEncodeDecodeSurvivesFlakyLink(t *testing.T) {
	// A 25% per-operation link-drop rate hits the writer flash, the
	// camouflage flash, the retainer flash, and the capture burst; the
	// bounded retry layer must ride through all of them.
	r := newFaultyCoreRig(t, "flaky-e2e", faults.Profile{Seed: 11, LinkDropRate: 0.25})
	key := stegocrypt.KeyFromPassphrase("flaky")
	msg := []byte("survives a flaky probe")
	opts := Options{Codec: paperCodec(t), Key: &key}

	rec, err := Encode(r, msg, opts)
	if err != nil {
		t.Fatalf("encode under flaky link: %v", err)
	}
	got, err := Decode(r, rec, opts)
	if err != nil {
		t.Fatalf("decode under flaky link: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("got %q want %q", got, msg)
	}
}

func TestRetryBackoffChargesEncodingHours(t *testing.T) {
	// Retries are not free: each one charges simulated bench time. Run
	// the same encode on clean and flaky rigs (same silicon) and check
	// the flaky campaign's clock ran longer.
	clean := newRig(t, "MSP432P401", "backoff-probe", 8<<10)
	flaky := newFaultyCoreRig(t, "backoff-probe", faults.Profile{Seed: 5, LinkDropRate: 0.4})
	msg := []byte("time is the cost of failure")
	opts := Options{Codec: paperCodec(t)}
	if _, err := Encode(clean, msg, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := Encode(flaky, msg, opts); err != nil {
		t.Fatalf("encode under flaky link: %v", err)
	}
	if flaky.ClockHours() <= clean.ClockHours() {
		t.Errorf("flaky clock %vh not above clean %vh — backoff not charged",
			flaky.ClockHours(), clean.ClockHours())
	}
	if !strings.Contains(strings.Join(flaky.Events(), "\n"), "idle") {
		t.Error("no idle (backoff) entries in the flaky rig's event log")
	}
}

func TestDeadLinkExhaustsRetryBudget(t *testing.T) {
	// A link that never comes back: the first flash is tried
	// 1+DefaultMaxRetries times, each retry charging doubled backoff,
	// and then the transient fault surfaces — the device is not written
	// off, and nothing past the failed flash runs.
	r := newFaultyCoreRig(t, "dead-link", faults.Profile{Seed: 2, LinkDropRate: 1})
	_, err := Encode(r, []byte("x"), Options{})
	if !faults.IsTransient(err) || faults.IsPermanent(err) {
		t.Fatalf("dead link surfaced as %v, want a transient fault", err)
	}
	if !r.Device().Alive() {
		t.Error("device written off after transient faults")
	}
	var attempts, idles int
	for _, e := range r.Events() {
		switch {
		case strings.Contains(e, "FAULT load-program"):
			attempts++
		case strings.Contains(e, "idle"):
			idles++
		}
	}
	if attempts != 1+DefaultMaxRetries || idles != DefaultMaxRetries {
		t.Errorf("%d attempts and %d backoffs, want %d and %d",
			attempts, idles, 1+DefaultMaxRetries, DefaultMaxRetries)
	}
	want := DefaultRetryBackoffHours * float64(uint(1)<<DefaultMaxRetries-1)
	if got := r.ClockHours(); got != want {
		t.Errorf("clock %vh after the retry budget, want %vh of backoff", got, want)
	}
}

func TestEncodeAbortsOnPermanentDeath(t *testing.T) {
	// Death mid-soak must abort the encode with a permanent
	// classification, not burn the retry budget.
	r := newFaultyCoreRig(t, "doomed-encode", faults.Profile{FailAtHours: 2})
	_, err := Encode(r, []byte("never makes it"), Options{})
	if !faults.IsPermanent(err) {
		t.Fatalf("mid-soak death surfaced as %v", err)
	}
	if r.Device().Alive() {
		t.Error("device alive after fatal encode")
	}
}

func TestEncodeContextCancellation(t *testing.T) {
	r := newRig(t, "MSP432P401", "cancel-encode", 8<<10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := EncodeContext(ctx, r, []byte("cancelled"), Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled encode returned %v", err)
	}
	_, err = DecodeContext(ctx, r, &Record{DeviceID: "x", MessageBytes: 1, PayloadBytes: 4, CodecName: "identity", Captures: 5}, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled decode returned %v", err)
	}
}

func TestStuckCellsAbsorbedByECC(t *testing.T) {
	// A handful of stuck cells land inside the paper codec's correction
	// budget; the message must still come back clean.
	r := newFaultyCoreRig(t, "stuck-ecc", faults.Profile{Seed: 21, StuckFrac: 0.002})
	key := stegocrypt.KeyFromPassphrase("stuck")
	msg := []byte("stuck cells are just more channel noise")
	opts := Options{Codec: paperCodec(t), Key: &key}
	rec, err := Encode(r, msg, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(r, rec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("stuck cells broke the message: got %q", got)
	}
}
