package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"invisiblebits/internal/device"
	"invisiblebits/internal/ecc"
	"invisiblebits/internal/faults"
	"invisiblebits/internal/rig"
	"invisiblebits/internal/rng"
	"invisiblebits/internal/stegocrypt"
)

func TestRefreshExtendsRetention(t *testing.T) {
	// Mid-life maintenance: after a year of hot shelf the imprint is
	// re-read through the ladder, verified against the digest, and
	// re-soaked. A second year of shelf then lands on a rejuvenated
	// imprint, and plain fixed-effort decode succeeds where the
	// unrefreshed twin (see the retention sweep) has already failed.
	ctx := context.Background()
	r, opts, aopts, msg := decayCampaign(t, "vault-refresh-2y")

	rec, err := EncodeContext(ctx, r, msg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.ShelveAtFor(365*24, 45); err != nil {
		t.Fatal(err)
	}

	rr, err := Refresh(ctx, r, rec, aopts, opts.StressHours)
	if err != nil {
		t.Fatalf("Refresh: %v", err)
	}
	if rr.Decode == nil || !rr.Decode.Verified {
		t.Fatalf("refresh decode report: %+v", rr.Decode)
	}
	if rr.StressHours != opts.StressHours {
		t.Fatalf("StressHours = %v, want %v", rr.StressHours, opts.StressHours)
	}
	if rr.MarginAfter <= rr.MarginBefore {
		t.Fatalf("margin %0.4f -> %0.4f, want the re-soak to recover margin",
			rr.MarginBefore, rr.MarginAfter)
	}

	// The maintenance event lands in the device's tamper-evident ledger
	// and survives an image save/load round trip (image format v2).
	log := r.Device().RefreshLog()
	if len(log) != 1 {
		t.Fatalf("refresh ledger has %d events, want 1", len(log))
	}
	if log[0].StressHours != opts.StressHours || log[0].MarginAfter != rr.MarginAfter {
		t.Fatalf("ledger event %+v does not match report %+v", log[0], rr)
	}
	var buf bytes.Buffer
	if err := r.Device().Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := device.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.RefreshLog(); len(got) != 1 || got[0] != log[0] {
		t.Fatalf("ledger after save/load = %+v, want %+v", got, log)
	}

	// Second year of shelf on the refreshed imprint.
	if err := r.ShelveAtFor(365*24, 45); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeContext(ctx, r, rec, opts)
	if err != nil {
		t.Fatalf("post-refresh hard decode: %v", err)
	}
	if err := rec.VerifyMessage(got, opts.Key); err != nil {
		t.Fatalf("post-refresh digest: %v", err)
	}
	if string(got) != string(msg) {
		t.Fatal("post-refresh decode returned wrong message")
	}
}

// refreshPins are digests of whole maintenance refreshes: the saved
// device image, the rig clock, event log and controller state, the
// refresh report (margins, soak and decode report) and the refresh
// ledger.
var refreshPins = []struct {
	name   string
	setup  func(t *testing.T) (r *rig.Rig, opts Options, msg []byte)
	shelf  float64 // hours at 45 °C between encode and refresh
	hours  float64 // refresh soak; 0 uses the model's encoding time
	sha256 string
}{
	{
		name: "retention",
		setup: func(t *testing.T) (*rig.Rig, Options, []byte) {
			r, opts, _, msg := decayCampaign(t, "refresh-pin")
			return r, opts, msg
		},
		shelf:  365 * 24,
		hours:  14,
		sha256: "a100081df35cc6b0e4c30fa5af563366170af3ace6224be7fb7e5f1ed9e3ef24",
	},
	{
		name:   "msp432-linkdrop",
		setup:  linkDropCarrier("MSP432P401", 4<<10, 96),
		shelf:  180 * 24,
		sha256: "cbe2106dca39d8bffdfb00e0790971a4703b466bcdb59e574fe546528e6a8c2e",
	},
	{
		name:   "msp430-linkdrop",
		setup:  linkDropCarrier("MSP430G2553", 0, 16),
		shelf:  180 * 24,
		sha256: "41bb10136e275b9b1fa82f4e469413380e752c40b102c09960c705fc549959ce",
	},
	{
		name: "bcm2837-flashless",
		setup: func(t *testing.T) (*rig.Rig, Options, []byte) {
			r := newRig(t, "BCM2837", "refresh-pin-bcm", 4<<10)
			plan, err := ecc.Best(0.21, 1e-6, 4<<10)
			if err != nil {
				t.Fatal(err)
			}
			key := stegocrypt.KeyFromPassphrase("refresh-pin")
			msg := make([]byte, 48)
			rng.NewSource(5).Bytes(msg)
			return r, Options{Codec: plan.Codec, Key: &key}, msg
		},
		shelf:  30 * 24,
		sha256: "d106567d7b55a245989d766997b1ea7487af167c82fc429ad8ca07db62a1048d",
	},
}

// linkDropCarrier mounts a carrier of the model whose debugger link
// drops 30% of operations.
func linkDropCarrier(model string, limit, msgBytes int) func(t *testing.T) (*rig.Rig, Options, []byte) {
	return func(t *testing.T) (*rig.Rig, Options, []byte) {
		m, err := device.ByName(model)
		if err != nil {
			t.Fatal(err)
		}
		var dopts []device.Option
		if limit > 0 {
			dopts = append(dopts, device.WithSRAMLimit(limit))
		}
		d, err := device.New(m, "refresh-pin-"+model, dopts...)
		if err != nil {
			t.Fatal(err)
		}
		r := rig.New(d, rig.WithInjector(faults.New(faults.Profile{Seed: 3, LinkDropRate: 0.3}, d.Serial)))
		key := stegocrypt.KeyFromPassphrase("refresh-pin")
		msg := make([]byte, msgBytes)
		rng.NewSource(4).Bytes(msg)
		return r, Options{Codec: paperCodec(t), Key: &key}, msg
	}
}

// TestRefreshPins holds whole refreshes to digests recorded before
// Refresh ran the encode session: a weak-cell retention carrier, two
// carriers on a lossy debugger link, and a flashless carrier written
// over the debug port behind a regulator bypass.
func TestRefreshPins(t *testing.T) {
	for _, tc := range refreshPins {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			r, opts, msg := tc.setup(t)
			rec, err := EncodeContext(ctx, r, msg, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.ShelveAtFor(tc.shelf, 45); err != nil {
				t.Fatal(err)
			}
			rep, err := Refresh(ctx, r, rec, AdaptiveOptions{Options: opts}, tc.hours)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			if err := r.Device().Save(h); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "clock %v state %+v\n", r.ClockHours(), r.State())
			for _, ev := range r.Events() {
				fmt.Fprintln(h, ev)
			}
			fmt.Fprintf(h, "margins %v %v soak %v decode %#v\n", rep.MarginBefore, rep.MarginAfter, rep.StressHours, *rep.Decode)
			fmt.Fprintf(h, "ledger %+v\n", r.Device().RefreshLog())
			got := hex.EncodeToString(h.Sum(nil))
			if got != tc.sha256 {
				t.Errorf("refresh digest = %s, want %s", got, tc.sha256)
			}
			dec, err := DecodeContext(ctx, r, rec, opts)
			if err != nil || !bytes.Equal(dec, msg) {
				t.Fatalf("decode after refresh: %v", err)
			}
		})
	}
}
