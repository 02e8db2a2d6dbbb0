package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"invisiblebits/internal/core"
	"invisiblebits/internal/faults"
	"invisiblebits/internal/rig"
)

// DefaultMarginThreshold flags a carrier for maintenance when its array
// mean margin drops below this value and no baseline is known. A fresh
// imprint probes well above 0.9; by the time the mean margin nears 0.6
// a meaningful fraction of cells have drifted into coin-flip territory
// and fixed-effort decode starts failing. The catch — learned the hard
// way in the retention study — is that the mean margin is nearly
// decay-insensitive on this channel: a cell that drifts to the wrong
// value still votes for it unanimously, so a fleet can rot well past
// decodability while its mean margin sits comfortably above 0.6. The
// fixed default therefore only catches catastrophic loss; calibrated
// sweeps (HealthSweepOptions.BaselineMargins) compare each carrier
// against its own fresh-capture baseline instead.
const DefaultMarginThreshold = 0.6

// DefaultBaselineDropFrac is the tolerated fractional margin drop below
// a calibrated baseline before a carrier is flagged. Because the mean
// margin barely moves under decay (half a percent separates fresh from
// fully rotted on a weak-cell-heavy fleet), the guard band must be far
// tighter than intuition suggests — and per-carrier: the carrier-to-
// carrier spread in fresh margins is as large as the decay signal
// itself, so a fleet-mean baseline cannot separate a healthy low-margin
// carrier from a decayed high-margin one. The margin estimator is
// repeatable to a few hundredths of a percent at a 45-capture burst, so
// half a percent below the carrier's OWN fresh baseline is a decisive
// decay signal, not probe noise.
const DefaultBaselineDropFrac = 0.005

// CarrierHealth is one carrier's outcome in a health sweep.
type CarrierHealth struct {
	Index    int
	DeviceID string
	// Probe is the margin estimate; nil when probing failed (Err set).
	Probe *rig.HealthReport
	// Err carries the probe or refresh failure for this carrier.
	Err error
	// Flagged is true when the probed margin fell below the threshold.
	Flagged bool
	// Refresh is the maintenance outcome when a refresh was scheduled
	// and ran (nil otherwise).
	Refresh *core.RefreshReport
}

// HealthSweepReport aggregates a sweep.
type HealthSweepReport struct {
	Carriers  []CarrierHealth
	Flagged   []int // indices of carriers below the margin threshold
	Refreshed []int // indices whose refresh completed successfully
	// Quarantined lists device IDs the mounted breaker set has written
	// off (empty without HealthSweepOptions.Breakers).
	Quarantined []string
}

// Err joins the per-carrier failures (nil when every carrier probed —
// and, if scheduled, refreshed — cleanly).
func (h *HealthSweepReport) Err() error {
	var errs []error
	for _, c := range h.Carriers {
		if c.Err != nil {
			errs = append(errs, fmt.Errorf("fleet: carrier %d (%s): %w", c.Index, c.DeviceID, c.Err))
		}
	}
	return errors.Join(errs...)
}

// HealthSweepOptions configures a sweep.
type HealthSweepOptions struct {
	// Captures is the probe burst per carrier; 0 means
	// rig.DefaultHealthCaptures.
	Captures int
	// MarginThreshold flags carriers probing below it. It is the
	// explicit override and always wins when > 0; when zero the sweep
	// calibrates from BaselineMargins, falling back to
	// DefaultMarginThreshold for a carrier without a baseline.
	MarginThreshold float64
	// BaselineMargins are per-carrier fresh-capture margins, measured
	// right after encoding before any shelf decay (the scheduler mints
	// them at completion: CampaignStatus.Baselines), index-aligned with
	// the sweep's rigs. When set (and MarginThreshold is not), each
	// carrier is flagged once its margin drops more than
	// DefaultBaselineDropFrac below its OWN baseline — the calibrated
	// threshold that catches gradual decay the 0.6 default sails past.
	BaselineMargins []float64
	// Refresh schedules a core.Refresh for every flagged carrier that
	// has a record in Records.
	Refresh bool
	// Records maps carriers to their encode records (matched by device
	// ID, falling back to slice position). Only needed when Refresh is
	// set — probing is plaintext-free.
	Records []*core.Record
	// Adaptive configures the refresh's decode ladder, key and codec.
	Adaptive core.AdaptiveOptions
	// StressHours is the refresh re-soak; ≤ 0 uses the model default.
	StressHours float64
	// Breakers, when non-nil, gates every probe and refresh through the
	// carrier's circuit breaker and surfaces the quarantine list in the
	// report — a sweep then doubles as the fleet's triage pass.
	Breakers *BreakerSet
}

// thresholdFor resolves carrier i's flagging threshold: the explicit
// override wins, then the carrier's own calibrated baseline, then the
// catastrophic-loss default.
func (o HealthSweepOptions) thresholdFor(i int) float64 {
	switch {
	case o.MarginThreshold > 0:
		return o.MarginThreshold
	case i < len(o.BaselineMargins) && o.BaselineMargins[i] > 0:
		return o.BaselineMargins[i] * (1 - DefaultBaselineDropFrac)
	default:
		return DefaultMarginThreshold
	}
}

// recordFor matches a carrier to its encode record by device ID, then
// by slice position.
func (o HealthSweepOptions) recordFor(i int, deviceID string) *core.Record {
	for _, rec := range o.Records {
		if rec != nil && rec.DeviceID == deviceID {
			return rec
		}
	}
	if i < len(o.Records) {
		return o.Records[i]
	}
	return nil
}

// HealthSweep probes every carrier's retention margin concurrently,
// flags the ones below the threshold, and — when opts.Refresh is set —
// refreshes each flagged carrier whose record is known. Probes need no
// plaintext or key, so a sweep can run against carriers the operator
// cannot read. The sweep is fault-tolerant like the rest of the fleet
// layer: a dead or flaky carrier is reported in its CarrierHealth entry
// and never sinks the sweep; the error return covers only structural
// misuse (no carriers).
func HealthSweep(ctx context.Context, rigs []*rig.Rig, opts HealthSweepOptions) (*HealthSweepReport, error) {
	if len(rigs) == 0 {
		return nil, errors.New("fleet: no devices")
	}
	rep := &HealthSweepReport{Carriers: make([]CarrierHealth, len(rigs))}

	var wg sync.WaitGroup
	for i, r := range rigs {
		wg.Add(1)
		go func(i int, r *rig.Rig) {
			defer wg.Done()
			c := &rep.Carriers[i]
			c.Index = i
			c.DeviceID = r.Device().DeviceID()
			if err := opts.Breakers.allow(c.DeviceID, r.ClockHours()); err != nil {
				c.Err = err
				return
			}
			var probe *rig.HealthReport
			err := faults.Retry(ctx, r, core.DefaultMaxRetries, core.DefaultRetryBackoffHours, func() error {
				var perr error
				probe, perr = r.ProbeHealthContext(ctx, opts.Captures, 0)
				return perr
			})
			opts.Breakers.record(c.DeviceID, err, r.ClockHours())
			if err != nil {
				c.Err = err
				return
			}
			c.Probe = probe
			c.Flagged = probe.MeanMargin < opts.thresholdFor(i)
		}(i, r)
	}
	wg.Wait()

	for i := range rep.Carriers {
		if rep.Carriers[i].Flagged {
			rep.Flagged = append(rep.Flagged, i)
		}
	}
	if !opts.Refresh || len(rep.Flagged) == 0 {
		rep.Quarantined = opts.Breakers.Quarantined()
		return rep, nil
	}

	// Refresh flagged carriers concurrently — each soak runs on its own
	// rig, all sharing the thermal chamber like a striped encode.
	for _, i := range rep.Flagged {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := &rep.Carriers[i]
			rec := opts.recordFor(i, c.DeviceID)
			if rec == nil {
				c.Err = fmt.Errorf("fleet: carrier flagged but no record to refresh from")
				return
			}
			if err := opts.Breakers.allow(c.DeviceID, rigs[i].ClockHours()); err != nil {
				c.Err = err
				return
			}
			rr, err := core.Refresh(ctx, rigs[i], rec, opts.Adaptive, opts.StressHours)
			opts.Breakers.record(c.DeviceID, err, rigs[i].ClockHours())
			c.Refresh = rr
			if err != nil {
				c.Err = err
			}
		}(i)
	}
	wg.Wait()

	for _, i := range rep.Flagged {
		c := rep.Carriers[i]
		if c.Err == nil && c.Refresh != nil {
			rep.Refreshed = append(rep.Refreshed, i)
		}
	}
	rep.Quarantined = opts.Breakers.Quarantined()
	return rep, nil
}
