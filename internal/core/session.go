package core

import (
	"context"
	"fmt"

	"invisiblebits/internal/device"
	"invisiblebits/internal/rig"
)

// EncodeSession is a staged encode: Algorithm 1 decomposed into
// prepare → sliced soak → finish, so a supervisor can journal progress
// after every stress slice and checkpoint the device image at slice
// boundaries. EncodeContext is exactly BeginEncode + one full-length
// StressSlice + Finish, so the staged path and the one-shot path share
// every line of pipeline code.
//
// The session is not safe for concurrent use; like the rig it drives,
// it belongs to one goroutine.
type EncodeSession struct {
	r          *rig.Rig
	message    []byte
	opts       Options
	payloadLen int
	totalHours float64
	applied    float64
	finished   bool
}

// BeginEncode runs the prepare phase of Algorithm 1 (lines 1–4 plus the
// ramp to accelerated conditions): payload build, capacity check,
// payload-writer firmware, then the chamber and supply are brought to
// the device's stress point. On return the device is soak-ready and the
// caller owns the stress schedule.
func BeginEncode(ctx context.Context, r *rig.Rig, message []byte, opts Options) (*EncodeSession, error) {
	payload, hours, err := planEncode(r, message, opts)
	if err != nil {
		return nil, err
	}
	dev := r.Device()

	// Lines 3–4: nominal conditions, load binaries, initialize SRAM.
	r.SetTemperature(dev.Model.TNomC)
	if err := r.SetVoltage(dev.Model.VNomV); err != nil {
		return nil, err
	}
	if err := writePayloadToSRAM(ctx, r, payload); err != nil {
		return nil, err
	}

	// Lines 5–6 head: elevate to accelerated conditions.
	if dev.Model.RequiresRegulatorBypass {
		if err := r.BypassRegulator(); err != nil {
			return nil, err
		}
	}
	if err := r.SetVoltage(dev.Model.VAccV); err != nil {
		return nil, err
	}
	r.SetTemperature(dev.Model.TAccC)
	return &EncodeSession{r: r, message: message, opts: opts, payloadLen: len(payload), totalHours: hours}, nil
}

// planEncode builds the payload and the soak length of an encode: the
// payload must fit the device's SRAM, and the soak is SoakHours.
func planEncode(r *rig.Rig, message []byte, opts Options) ([]byte, float64, error) {
	dev := r.Device()
	payload, err := BuildPayload(message, dev.DeviceID(), opts)
	if err != nil {
		return nil, 0, err
	}
	if len(payload) > dev.SRAM.Bytes() {
		return nil, 0, fmt.Errorf("%w: payload %d bytes, SRAM %d bytes",
			ErrPayloadTooLarge, len(payload), dev.SRAM.Bytes())
	}
	return payload, SoakHours(opts.StressHours, dev.Model), nil
}

// SoakHours is the soak length of an encode on model m: stressHours
// when it is positive, otherwise the model's Table 4 encoding time.
func SoakHours(stressHours float64, m device.Model) float64 {
	if stressHours > 0 {
		return stressHours
	}
	return m.EncodingHours
}

// ResumeEncode reconstructs a session around a device restored from a
// mid-soak checkpoint: the payload is already in SRAM, appliedHours of
// stress have already been absorbed, and the rig's controller state
// (conditions, clock, bypass) has been re-established via
// rig.RestoreState. No device operation runs; the next StressSlice
// continues the soak exactly where the checkpoint left it.
func ResumeEncode(ctx context.Context, r *rig.Rig, message []byte, opts Options, appliedHours float64) (*EncodeSession, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	payload, hours, err := planEncode(r, message, opts)
	if err != nil {
		return nil, err
	}
	if appliedHours < 0 || appliedHours > hours {
		return nil, fmt.Errorf("core: resumed session claims %.2fh of %.2fh applied", appliedHours, hours)
	}
	return &EncodeSession{
		r: r, message: message, opts: opts,
		payloadLen: len(payload), totalHours: hours, applied: appliedHours,
	}, nil
}

// TotalHours is the planned soak length.
func (s *EncodeSession) TotalHours() float64 { return s.totalHours }

// AppliedHours is the stress absorbed so far (including checkpointed
// hours a resumed session inherited).
func (s *EncodeSession) AppliedHours() float64 { return s.applied }

// RemainingHours is the soak still owed.
func (s *EncodeSession) RemainingHours() float64 {
	rem := s.totalHours - s.applied
	if rem < 0 {
		return 0
	}
	return rem
}

// StressSlice soaks for hours at the session's accelerated conditions,
// clamped to the remaining schedule. Zero-remaining slices are no-ops.
func (s *EncodeSession) StressSlice(ctx context.Context, hours float64) error {
	if s.finished {
		return fmt.Errorf("core: stress slice on a finished encode session")
	}
	if hours > s.RemainingHours() {
		hours = s.RemainingHours()
	}
	if hours <= 0 {
		return nil
	}
	if err := s.r.StressForContext(ctx, hours); err != nil {
		return err
	}
	s.applied += hours
	return nil
}

// Finish completes the encode (the tail of Algorithm 1): restore
// nominal conditions, power down, camouflage, and mint the Record. The
// full soak must have been applied.
func (s *EncodeSession) Finish(ctx context.Context) (*Record, error) {
	if s.finished {
		return nil, fmt.Errorf("core: encode session already finished")
	}
	if rem := s.RemainingHours(); rem > 1e-9 {
		return nil, fmt.Errorf("core: finish with %.2fh of soak still owed", rem)
	}
	dev := s.r.Device()
	s.r.SetTemperature(dev.Model.TNomC)
	if err := s.r.SetVoltage(dev.Model.VNomV); err != nil {
		return nil, err
	}
	s.r.PowerOff()
	if dev.Flash != nil {
		if err := loadCamouflage(ctx, s.r); err != nil {
			return nil, err
		}
	}
	s.finished = true

	algo, digest := computeDigest(s.message, dev.DeviceID(), s.opts.Key)
	return &Record{
		DeviceID:     dev.DeviceID(),
		MessageBytes: len(s.message),
		PayloadBytes: s.payloadLen,
		CodecName:    s.opts.codec().Name(),
		Encrypted:    s.opts.Key != nil,
		Captures:     s.opts.captures(),
		StressHours:  s.totalHours,
		Digest:       digest,
		DigestAlgo:   algo,
	}, nil
}
