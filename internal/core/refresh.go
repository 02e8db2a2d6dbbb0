package core

import (
	"context"
	"fmt"

	"invisiblebits/internal/device"
	"invisiblebits/internal/rig"
)

// RefreshReport accounts for one maintenance refresh of a decaying
// carrier.
type RefreshReport struct {
	// Decode is the adaptive-decode report for the recovery step — the
	// effort it took to pin the message down before rewriting it.
	Decode *DecodeReport
	// MarginBefore/MarginAfter are the array mean margins measured
	// around the re-stress.
	MarginBefore float64
	MarginAfter  float64
	// StressHours is the re-stress soak the refresh charged.
	StressHours float64
}

// Refresh restores a decaying imprint: it recovers the message with the
// full adaptive ladder (digest-verified — a refresh must never burn a
// wrong message deeper into the silicon), then runs the encode session
// on it again: rewrite into SRAM, re-stress at accelerated conditions,
// restore nominal conditions and camouflage. The overdrive step runs
// through the rig's safe-voltage interlock exactly like a first encode:
// a model whose ceiling forbids VAccV fails here rather than cooking the
// device. stressHours ≤ 0 uses the model's Table 4 encoding time.
//
// On success the device's maintenance ledger gains a RefreshEvent and
// the report carries margins before/after.
func Refresh(ctx context.Context, r *rig.Rig, rec *Record, aopts AdaptiveOptions, stressHours float64) (*RefreshReport, error) {
	opts := aopts.Options
	opts.StressHours = stressHours

	before, err := probeMargin(ctx, r)
	if err != nil {
		return nil, fmt.Errorf("core: refresh pre-probe: %w", err)
	}

	msg, decRep, err := DecodeAdaptive(ctx, r, rec, aopts)
	rep := &RefreshReport{Decode: decRep, MarginBefore: before}
	if err != nil {
		return rep, fmt.Errorf("core: refresh decode: %w", err)
	}

	s, err := BeginEncode(ctx, r, msg, opts)
	if err != nil {
		return rep, err
	}
	if s.payloadLen != rec.PayloadBytes {
		return rep, fmt.Errorf("%w: rebuilt payload is %d bytes, record claims %d",
			ErrRecordShape, s.payloadLen, rec.PayloadBytes)
	}
	rep.StressHours = s.TotalHours()
	if err := s.StressSlice(ctx, s.TotalHours()); err != nil {
		return rep, err
	}
	if _, err := s.Finish(ctx); err != nil {
		return rep, err
	}

	after, err := probeMargin(ctx, r)
	if err != nil {
		return rep, fmt.Errorf("core: refresh post-probe: %w", err)
	}
	rep.MarginAfter = after
	r.Device().RecordRefresh(device.RefreshEvent{
		ClockHours:   r.ClockHours(),
		StressHours:  rep.StressHours,
		MarginBefore: before,
		MarginAfter:  after,
	})
	return rep, nil
}

// probeMargin runs a health probe under the retry policy and returns
// the array mean margin.
func probeMargin(ctx context.Context, r *rig.Rig) (float64, error) {
	var hr *rig.HealthReport
	err := retry(ctx, r, func() error {
		var perr error
		hr, perr = r.ProbeHealthContext(ctx, 0, 0)
		return perr
	})
	if err != nil {
		return 0, err
	}
	return hr.MeanMargin, nil
}
