package fleet

import (
	"context"
	"fmt"
	"testing"

	"invisiblebits/internal/core"
	"invisiblebits/internal/device"
	"invisiblebits/internal/ecc"
	"invisiblebits/internal/faults"
	"invisiblebits/internal/rig"
	"invisiblebits/internal/rng"
	"invisiblebits/internal/stegocrypt"
)

// TestThresholdForResolution: the explicit threshold wins over any
// baseline; a carrier with a positive baseline is flagged
// DefaultBaselineDropFrac below it; a carrier past the end of the
// baselines, or whose baseline is not positive, falls back to
// DefaultMarginThreshold.
func TestThresholdForResolution(t *testing.T) {
	baselines := []float64{0.8, 0, -0.1}
	cases := []struct {
		opts HealthSweepOptions
		i    int
		want float64
	}{
		{HealthSweepOptions{MarginThreshold: 0.5, BaselineMargins: baselines}, 0, 0.5},
		{HealthSweepOptions{BaselineMargins: baselines}, 0, 0.8 * (1 - DefaultBaselineDropFrac)},
		{HealthSweepOptions{BaselineMargins: baselines}, 1, DefaultMarginThreshold},
		{HealthSweepOptions{BaselineMargins: baselines}, 2, DefaultMarginThreshold},
		{HealthSweepOptions{BaselineMargins: baselines}, 3, DefaultMarginThreshold},
		{HealthSweepOptions{}, 0, DefaultMarginThreshold},
	}
	for _, c := range cases {
		if got := c.opts.thresholdFor(c.i); got != c.want {
			t.Errorf("thresholdFor(%d) with threshold %v, baselines %v = %v, want %v",
				c.i, c.opts.MarginThreshold, c.opts.BaselineMargins, got, c.want)
		}
	}
}

// TestHealthSweepRefreshRestoresStripe is the fleet-maintenance
// acceptance scenario: a message striped across three small carriers
// decays through two simulated years of hot shelf storage until Gather
// can no longer reassemble it. A health sweep probes every carrier
// (plaintext-free), flags them against a campaign-calibrated margin
// threshold, refreshes each one through the self-verifying decode
// ladder, and afterwards a plain Gather succeeds again.
func TestHealthSweepRefreshRestoresStripe(t *testing.T) {
	model, err := device.ByName("MSP432P401")
	if err != nil {
		t.Fatal(err)
	}
	rep7, err := ecc.NewRepetition(7)
	if err != nil {
		t.Fatal(err)
	}
	key := stegocrypt.KeyFromPassphrase("stripe-health")
	opts := core.Options{
		Codec:       ecc.Composite{Outer: ecc.Hamming74{}, Inner: rep7},
		Key:         &key,
		StressHours: 14,
	}
	// Fill all three carriers to capacity so every one holds a shard.
	capBytes := core.MaxMessageBytes(1<<10, opts.Codec)
	msg := make([]byte, 3*capBytes)
	rng.NewSource(99).Bytes(msg)
	ctx := context.Background()
	profile := faults.Profile{Seed: 7, WeakFrac: 0.14}

	rigs := make([]*rig.Rig, 3)
	for i := range rigs {
		d, err := device.New(model, fmt.Sprintf("stripe-%d", i), device.WithSRAMLimit(1<<10))
		if err != nil {
			t.Fatal(err)
		}
		rigs[i] = rig.New(d, rig.WithInjector(faults.New(profile, d.Serial)))
	}

	striped, err := Stripe(rigs, msg, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rigs {
		if err := r.ShelveAtFor(2*365*24, 45); err != nil {
			t.Fatal(err)
		}
	}

	// The decayed stripe is unreadable at fixed effort.
	if _, err := Gather(rigs, striped, opts); err == nil {
		t.Fatal("gather on the decayed stripe unexpectedly succeeded")
	}

	records := make([]*core.Record, len(striped.Shards))
	for i, sh := range striped.Shards {
		records[i] = sh.Record
	}
	// MeanMargin barely moves with decay on this channel (stably-wrong
	// cells still vote with full margin), so the threshold is calibrated
	// against the campaign's fresh baseline rather than the permissive
	// package default.
	sweep, err := HealthSweep(ctx, rigs, HealthSweepOptions{
		MarginThreshold: 0.9,
		Refresh:         true,
		Records:         records,
		Adaptive:        core.AdaptiveOptions{Options: opts, MaxCaptures: 45},
		StressHours:     opts.StressHours,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sweep.Err(); err != nil {
		t.Fatalf("sweep casualties: %v", err)
	}
	if len(sweep.Flagged) != len(rigs) || len(sweep.Refreshed) != len(rigs) {
		t.Fatalf("flagged %v refreshed %v, want all %d carriers", sweep.Flagged, sweep.Refreshed, len(rigs))
	}
	for _, c := range sweep.Carriers {
		if c.Probe == nil {
			t.Fatalf("carrier %d has no probe report", c.Index)
		}
		if c.Probe.MeanMargin <= 0 || c.Probe.MeanMargin >= 0.9 {
			t.Fatalf("carrier %d margin %.3f, want in (0, 0.9) on the decayed fleet",
				c.Index, c.Probe.MeanMargin)
		}
		if c.Refresh == nil || !c.Refresh.Decode.Verified {
			t.Fatalf("carrier %d refresh report %+v, want a verified ladder decode", c.Index, c.Refresh)
		}
		if c.Refresh.MarginAfter <= c.Refresh.MarginBefore {
			t.Fatalf("carrier %d margin %.4f -> %.4f, want the re-soak to recover margin",
				c.Index, c.Refresh.MarginBefore, c.Refresh.MarginAfter)
		}
		if got := rigs[c.Index].Device().RefreshLog(); len(got) != 1 {
			t.Fatalf("carrier %d refresh ledger has %d events, want 1", c.Index, len(got))
		}
	}

	got, err := Gather(rigs, striped, opts)
	if err != nil {
		t.Fatalf("gather after refresh: %v", err)
	}
	if string(got) != string(msg) {
		t.Fatal("gather after refresh returned wrong message")
	}
}

// TestHealthSweepToleratesDeadCarrier: a carrier whose link is dead is
// reported in its own entry and never sinks the sweep.
func TestHealthSweepToleratesDeadCarrier(t *testing.T) {
	model, err := device.ByName("MSP432P401")
	if err != nil {
		t.Fatal(err)
	}
	mk := func(serial string, p faults.Profile) *rig.Rig {
		d, err := device.New(model, serial, device.WithSRAMLimit(1<<10))
		if err != nil {
			t.Fatal(err)
		}
		return rig.New(d, rig.WithInjector(faults.New(p, d.Serial)))
	}
	rigs := []*rig.Rig{
		mk("sweep-ok", faults.Profile{}),
		mk("sweep-dead", faults.Profile{Seed: 3, FailAtHours: 0.001}),
	}
	// Charge some clock time so the second carrier is already dead.
	for _, r := range rigs {
		if err := r.ShelveAtFor(1, 25); err != nil {
			t.Fatal(err)
		}
	}
	sweep, err := HealthSweep(context.Background(), rigs, HealthSweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sweep.Carriers[0].Err != nil || sweep.Carriers[0].Probe == nil {
		t.Fatalf("healthy carrier: %+v", sweep.Carriers[0])
	}
	if sweep.Carriers[1].Err == nil {
		t.Fatal("dead carrier reported no error")
	}
	if sweep.Err() == nil {
		t.Fatal("sweep error summary should name the casualty")
	}
}

// TestHealthSweepBaselineCalibration pins the PR 2 retention-study
// lesson as an executable regression: on a weak-cell-heavy fleet the
// mean vote margin is nearly decay-insensitive (a drifted cell still
// votes its wrong value unanimously), so a fleet can rot from fresh to
// fully decayed while every margin stays far above the 0.6 default —
// the default-threshold sweep sees nothing. Calibrating against each
// carrier's own fresh-capture baseline (a sweep of the fresh fleet) flags
// the same decayed fleet, while a re-probe of the fresh fleet stays
// unflagged. The explicit MarginThreshold override still wins over the
// baseline when both are set.
func TestHealthSweepBaselineCalibration(t *testing.T) {
	model, err := device.ByName("MSP432P401")
	if err != nil {
		t.Fatal(err)
	}
	rep7, err := ecc.NewRepetition(7)
	if err != nil {
		t.Fatal(err)
	}
	key := stegocrypt.KeyFromPassphrase("baseline-cal")
	opts := core.Options{
		Codec:       ecc.Composite{Outer: ecc.Hamming74{}, Inner: rep7},
		Key:         &key,
		StressHours: 14,
	}
	capBytes := core.MaxMessageBytes(1<<10, opts.Codec)
	msg := make([]byte, 2*capBytes)
	rng.NewSource(99).Bytes(msg)
	profile := faults.Profile{Seed: 7, WeakFrac: 0.14}
	ctx := context.Background()
	// The decay signal is ~0.5% of margin, so probe with a burst big
	// enough that estimator noise (~0.03% at 45 captures) is negligible.
	const captures = 45

	mkFleet := func() []*rig.Rig {
		rigs := make([]*rig.Rig, 2)
		for i := range rigs {
			d, err := device.New(model, fmt.Sprintf("bl-%d", i), device.WithSRAMLimit(1<<10))
			if err != nil {
				t.Fatal(err)
			}
			rigs[i] = rig.New(d, rig.WithInjector(faults.New(profile, d.Serial)))
		}
		return rigs
	}

	rigs := mkFleet()
	if _, err := Stripe(rigs, msg, opts); err != nil {
		t.Fatal(err)
	}
	probe, err := HealthSweep(ctx, rigs, HealthSweepOptions{Captures: captures})
	if err != nil {
		t.Fatal(err)
	}
	if err := probe.Err(); err != nil {
		t.Fatal(err)
	}
	baselines := make([]float64, len(probe.Carriers))
	for i, c := range probe.Carriers {
		baselines[i] = c.Probe.MeanMargin
	}
	for i, b := range baselines {
		if b <= 0.8 || b >= 1 {
			t.Fatalf("carrier %d fresh baseline %.4f, want a high fresh margin", i, b)
		}
	}

	// A fresh fleet swept against its own baseline is NOT flagged:
	// calibration must not turn healthy carriers into maintenance work.
	fresh, err := HealthSweep(ctx, rigs, HealthSweepOptions{Captures: captures, BaselineMargins: baselines})
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh.Flagged) != 0 {
		t.Fatalf("fresh fleet flagged %v against its own baseline", fresh.Flagged)
	}

	// Rot the fleet: a year of hot shelf storage, enough that decode
	// degrades — yet the margins barely move.
	for _, r := range rigs {
		if err := r.ShelveAtFor(365*24, 45); err != nil {
			t.Fatal(err)
		}
	}

	// The decay-insensitive mean-margin case: the default threshold
	// misses the rot entirely.
	missed, err := HealthSweep(ctx, rigs, HealthSweepOptions{Captures: captures})
	if err != nil {
		t.Fatal(err)
	}
	if len(missed.Flagged) != 0 {
		t.Fatalf("default 0.6 threshold flagged %v — the decay-insensitivity premise broke", missed.Flagged)
	}
	for _, c := range missed.Carriers {
		if c.Probe.MeanMargin < DefaultMarginThreshold {
			t.Fatalf("carrier %d decayed margin %.4f fell below the default threshold — scenario no longer exercises the miss",
				c.Index, c.Probe.MeanMargin)
		}
	}

	// The calibrated sweep catches it: every carrier dropped more than
	// DefaultBaselineDropFrac below its own fresh baseline.
	caught, err := HealthSweep(ctx, rigs, HealthSweepOptions{Captures: captures, BaselineMargins: baselines})
	if err != nil {
		t.Fatal(err)
	}
	if len(caught.Flagged) != len(rigs) {
		for _, c := range caught.Carriers {
			t.Logf("carrier %d: margin %.4f baseline %.4f", c.Index, c.Probe.MeanMargin, baselines[c.Index])
		}
		t.Fatalf("calibrated sweep flagged %v, want all %d decayed carriers", caught.Flagged, len(rigs))
	}

	// The explicit override still wins: a permissive explicit threshold
	// un-flags the fleet even with baselines supplied.
	over, err := HealthSweep(ctx, rigs, HealthSweepOptions{
		Captures: captures, BaselineMargins: baselines, MarginThreshold: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(over.Flagged) != 0 {
		t.Fatalf("explicit 0.5 threshold flagged %v despite override", over.Flagged)
	}
}
