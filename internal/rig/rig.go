// Package rig simulates the paper's evaluation platform (Fig. 5): a
// controller board driving a target device's supply rail, a thermal
// chamber, a debugger link, and automated power-on-state sampling. The
// rig owns the simulated clock — stress time, shelf time, and chamber
// ramps all advance it — so experiments can report encoding times in the
// paper's units (hours) while running in milliseconds.
//
// The controller "supplies power directly if the target device consumes a
// small amount of power … but switches to an external power supply unit
// if the target demands higher current"; complex devices additionally
// need the §7.2 regulator bypass before their core rail can be
// overdriven.
package rig

import (
	"context"
	"errors"
	"fmt"

	"invisiblebits/internal/analog"
	"invisiblebits/internal/asm"
	"invisiblebits/internal/cpu"
	"invisiblebits/internal/device"
	"invisiblebits/internal/faults"
	"invisiblebits/internal/sram"
)

// ChamberRampCPerMin is the thermal chamber's ramp rate. Ramps consume
// simulated time but (as in the paper's methodology) aging during the
// short ramp is neglected relative to hours-long soaks.
const ChamberRampCPerMin = 5.0

// stressSlices is how finely a fault-injected soak is diced: the
// injector is consulted (death, brownout, chamber excursion) once per
// slice. Without an injector the soak runs in a single step, keeping the
// no-fault path bit-identical to a rig that has never heard of faults.
const stressSlices = 16

// Rig couples a device to the evaluation hardware.
type Rig struct {
	dev *device.Device

	clockHours float64
	chamberC   float64
	supplyV    float64
	bypassed   bool

	injector faults.Injector
	// view is the per-cell count scratch an active injector corrupts
	// on the vote-plane path.
	view []uint16

	transientFaults int
	permanentFaults int

	events []string
}

// State is the controller-side condition of the rig: everything the
// evaluation hardware holds that the device image does not. A campaign
// checkpoint persists it next to the device image so a crash-resumed
// supervisor can re-enter a soak at the exact conditions — clock,
// chamber, supply, and the §7.2 bypass — the crashed process left
// behind. JSON- and gob-encodable.
type State struct {
	ClockHours float64
	ChamberC   float64
	SupplyV    float64
	Bypassed   bool
}

// State snapshots the rig's controller state.
func (r *Rig) State() State {
	return State{
		ClockHours: r.clockHours,
		ChamberC:   r.chamberC,
		SupplyV:    r.supplyV,
		Bypassed:   r.bypassed,
	}
}

// RestoreState re-establishes a checkpointed controller state on a
// freshly mounted rig: the clock resumes where the crashed campaign
// left it, and the chamber/supply/bypass are re-applied without ramp
// time (the checkpoint recorded conditions that were already reached).
// The safe-voltage interlock still holds — a checkpoint cannot smuggle
// in an overdrive the device was never qualified for.
func (r *Rig) RestoreState(s State) error {
	if s.SupplyV <= 0 {
		return fmt.Errorf("rig: checkpoint has non-positive supply voltage %v", s.SupplyV)
	}
	if ceil := r.dev.Model.SafeVoltageCeiling(); s.SupplyV > ceil {
		return fmt.Errorf("%w: checkpointed %.2fV > %.2fV for %s",
			ErrUnsafeVoltage, s.SupplyV, ceil, r.dev.Model.Name)
	}
	if s.Bypassed && !r.dev.Model.RequiresRegulatorBypass {
		return fmt.Errorf("rig: checkpoint claims a bypass on %s, which exposes its core rail", r.dev.Model.Name)
	}
	r.clockHours = s.ClockHours
	r.chamberC = s.ChamberC
	r.supplyV = s.SupplyV
	r.bypassed = s.Bypassed
	r.logf("restored checkpoint state: %.2fV/%.0f°C, bypassed=%v", s.SupplyV, s.ChamberC, s.Bypassed)
	return nil
}

// FaultCounts reports how many classified faults the rig has observed at
// its injector hook points, split by severity. Fleet reports snapshot
// the counters around each per-device operation, making retry spend and
// breaker trips explainable post-hoc.
func (r *Rig) FaultCounts() (transient, permanent int) {
	return r.transientFaults, r.permanentFaults
}

// Option customizes rig construction.
type Option func(*Rig)

// WithInjector mounts a fault injector between the rig and the device.
// Every debugger-link operation, power ramp, capture burst, and stress
// slice consults it first; see the faults package for the hazard model.
func WithInjector(inj faults.Injector) Option {
	return func(r *Rig) { r.injector = inj }
}

// New mounts a device in the rig at ambient conditions with the supply at
// the device's nominal voltage.
func New(dev *device.Device, opts ...Option) *Rig {
	r := &Rig{
		dev:      dev,
		chamberC: dev.Model.TNomC,
		supplyV:  dev.Model.VNomV,
	}
	for _, opt := range opts {
		opt(r)
	}
	r.logf("mounted %s (serial %s)", dev.Model.Name, dev.Serial)
	return r
}

// Device returns the mounted device.
func (r *Rig) Device() *device.Device { return r.dev }

// ClockHours returns elapsed simulated time.
func (r *Rig) ClockHours() float64 { return r.clockHours }

// AdvanceClock charges idle simulated time to the rig — retry backoff,
// operator response time, queueing for the chamber. Non-positive
// durations are ignored.
func (r *Rig) AdvanceClock(hours float64) {
	if hours <= 0 {
		return
	}
	r.clockHours += hours
	r.logf("idle %.2fh", hours)
}

// faultsActive reports whether a non-inert injector is mounted. An
// injector that provably injects nothing (faults.SeededInjector with a
// zero profile) keeps the rig on its exact no-fault code paths.
func (r *Rig) faultsActive() bool {
	if r.injector == nil {
		return false
	}
	if in, ok := r.injector.(interface{ Inert() bool }); ok && in.Inert() {
		return false
	}
	return true
}

// opError consults the injector before an operation. Injected permanent
// faults kill the device outright — the simulation's equivalent of the
// lab tech finding a board that no longer enumerates.
func (r *Rig) opError(op faults.Op) error {
	if r.injector == nil {
		return nil
	}
	err := r.injector.OpError(op, r.clockHours)
	if err != nil {
		r.logf("FAULT %s: %v", op, err)
		switch {
		case faults.IsPermanent(err):
			r.permanentFaults++
			r.dev.Kill(err)
		case faults.IsTransient(err):
			r.transientFaults++
		}
	}
	return err
}

// Conditions returns the present electrical/thermal environment.
func (r *Rig) Conditions() analog.Conditions {
	return analog.Conditions{VoltageV: r.supplyV, TempC: r.chamberC}
}

// Events returns the rig's action log (most recent last).
func (r *Rig) Events() []string {
	out := make([]string, len(r.events))
	copy(out, r.events)
	return out
}

func (r *Rig) logf(format string, args ...any) {
	r.events = append(r.events, fmt.Sprintf("[t=%.2fh] ", r.clockHours)+fmt.Sprintf(format, args...))
}

// SetTemperature ramps the chamber to target °C, consuming ramp time.
func (r *Rig) SetTemperature(targetC float64) {
	delta := targetC - r.chamberC
	if delta < 0 {
		delta = -delta
	}
	r.clockHours += delta / ChamberRampCPerMin / 60
	r.chamberC = targetC
	r.logf("chamber -> %.0f°C", targetC)
}

// ErrNeedsBypass is returned when overdriving a regulated core rail
// without first calling BypassRegulator (§7.2).
var ErrNeedsBypass = errors.New("rig: target regulates its core rail; call BypassRegulator first")

// ErrUnsafeVoltage is returned when a requested supply voltage exceeds
// the device's absolute safe overdrive ceiling (§7.2 cautions that
// elevating the core rail beyond the characterized stress point risks
// destroying the device).
var ErrUnsafeVoltage = errors.New("rig: supply voltage exceeds the device's safe overdrive ceiling")

// SetVoltage drives the supply rail. Overdriving a device that regulates
// its core requires the §7.2 bypass, and no device may be driven past
// its Model.SafeVoltageCeiling.
func (r *Rig) SetVoltage(v float64) error {
	if v <= 0 {
		return fmt.Errorf("rig: non-positive supply voltage %v", v)
	}
	if ceil := r.dev.Model.SafeVoltageCeiling(); v > ceil {
		return fmt.Errorf("%w: %.2fV > %.2fV for %s", ErrUnsafeVoltage, v, ceil, r.dev.Model.Name)
	}
	if v > r.dev.Model.VNomV*1.05 && r.dev.Model.RequiresRegulatorBypass && !r.bypassed {
		return ErrNeedsBypass
	}
	r.supplyV = v
	r.logf("supply -> %.2fV", v)
	return nil
}

// BypassRegulator attaches the rig to the regulator's inductor pin so the
// core rail can be driven directly (§7.2: "we exploit this pin to reach
// the core supply line directly and elevate the core voltage").
func (r *Rig) BypassRegulator() error {
	if !r.dev.Model.RequiresRegulatorBypass {
		return fmt.Errorf("rig: %s exposes its core rail; no bypass needed", r.dev.Model.Name)
	}
	r.bypassed = true
	r.logf("regulator bypassed via inductor pin")
	return nil
}

// LoadProgram flashes firmware through the debugger. With a fault
// injector mounted the link may drop transiently (retry) or the device
// may turn out to be dead (give up).
func (r *Rig) LoadProgram(prog *asm.Program) error {
	if err := r.opError(faults.OpLoadProgram); err != nil {
		return err
	}
	if err := r.dev.LoadProgram(prog); err != nil {
		return err
	}
	r.logf("flashed %d-byte image", len(prog.Image))
	return nil
}

// PowerOn powers the device at the chamber temperature. If the device is
// already powered the rig cycles it (with full discharge) first — the
// controller always takes the rail through ground before a fresh ramp.
func (r *Rig) PowerOn() ([]byte, error) {
	return r.PowerOnContext(context.Background())
}

// PowerOnContext is PowerOn with cancellation, so a fleet
// characterization sweep can abandon a fingerprint read mid-race. On
// cancellation the device is left unpowered and clean.
func (r *Rig) PowerOnContext(ctx context.Context) ([]byte, error) {
	if err := r.opError(faults.OpPowerOn); err != nil {
		return nil, err
	}
	if r.dev.SRAM.Powered() {
		r.PowerOff()
	}
	snap, err := r.dev.PowerOnContext(ctx, r.chamberC)
	if err != nil {
		return nil, err
	}
	if r.injector != nil {
		r.injector.CorruptSnapshot(snap, r.clockHours)
	}
	r.logf("power on at %.2fV/%.0f°C", r.supplyV, r.chamberC)
	return snap, nil
}

// PowerOff drops power; the rig always discharges fully, eliminating
// remanence as the paper's methodology requires ("driving the supply
// voltage of the device to the ground state", §5).
func (r *Rig) PowerOff() {
	r.dev.PowerOff(true)
	r.logf("power off (full discharge)")
}

// RunFirmware executes the loaded program; payload writers and retainers
// end in a busy-wait, which is the expected outcome.
func (r *Rig) RunFirmware(maxSteps uint64) (cpu.StopReason, error) {
	reason, err := r.dev.Run(maxSteps)
	if err != nil {
		return reason, err
	}
	r.logf("firmware ran to %v", reason)
	return reason, nil
}

// StressForContext soaks the powered device for hours at the present
// conditions, aging its SRAM with whatever the firmware left there
// (Algorithm 1, lines 5–6). Simulated time advances, and ctx can cancel
// the soak. With a fault injector mounted the soak is diced into
// slices: each slice consults the injector for device death and runs
// under possibly-perturbed conditions (supply brownout, chamber
// excursion) — the disturbances a multi-hour lab soak actually
// experiences. A mid-soak death leaves the clock at
// the moment of death, with the stress accumulated up to it.
func (r *Rig) StressForContext(ctx context.Context, hours float64) error {
	if hours <= 0 {
		return fmt.Errorf("rig: non-positive stress duration %v", hours)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if !r.faultsActive() {
		// No (active) injector: single-shot soak, bit-identical to the
		// pre-fault rig (slicing composes exactly in the aging model, but
		// float rounding is not worth risking on the hot path).
		cond := r.Conditions()
		if err := r.stressDevice(cond, hours); err != nil {
			return err
		}
		r.clockHours += hours
		r.logf("stressed %.1fh at %v", hours, cond)
		return nil
	}
	slice := hours / stressSlices
	remaining := hours
	for remaining > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := r.opError(faults.OpStress); err != nil {
			return fmt.Errorf("rig: soak aborted with %.1fh remaining: %w", remaining, err)
		}
		dt := slice
		if remaining < dt {
			dt = remaining
		}
		applied, note := r.injector.PerturbConditions(r.Conditions(), r.clockHours)
		if note != "" {
			r.logf("FAULT stress slice: %s (applied %v)", note, applied)
		}
		if err := r.stressDevice(applied, dt); err != nil {
			return err
		}
		r.clockHours += dt
		remaining -= dt
	}
	r.logf("stressed %.1fh at %v (fault-injected soak)", hours, r.Conditions())
	return nil
}

// stressDevice routes one stress episode through the §7.2 bypass when
// the rig has attached it.
func (r *Rig) stressDevice(c analog.Conditions, hours float64) error {
	if r.bypassed {
		return r.dev.StressBypassed(c, hours)
	}
	return r.dev.Stress(c, hours)
}

// ShelveFor stores the device for hours (natural recovery). A shelved
// device is by definition unpowered, so the rig drops power first.
func (r *Rig) ShelveFor(hours float64) error {
	if r.dev.SRAM.Powered() {
		r.PowerOff()
	}
	if err := r.dev.Shelve(hours); err != nil {
		return err
	}
	r.clockHours += hours
	r.logf("shelved %.1fh", hours)
	return nil
}

// ShelveAtFor stores the unpowered device at tempC for hours — hot
// storage accelerates imprint recovery (the §5.2 retention surface).
// Unlike calling the device's ShelveAt directly, this charges the shelf
// time to the rig's simulated clock, so time-keyed fault profiles (e.g.
// FailAtHours) stay consistent with the aging timeline.
func (r *Rig) ShelveAtFor(hours, tempC float64) error {
	if r.dev.SRAM.Powered() {
		r.PowerOff()
	}
	if err := r.dev.ShelveAt(hours, tempC); err != nil {
		return err
	}
	r.clockHours += hours
	r.logf("shelved %.1fh at %.0f°C", hours, tempC)
	return nil
}

// captureBurst runs one capture burst over the debugger link, which an
// injector may drop: it power-cycles the device into capture, and
// afterwards re-arms the CPU so firmware can run after sampling.
func (r *Rig) captureBurst(ctx context.Context, capture func() error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := r.opError(faults.OpCapture); err != nil {
		return err
	}
	if r.dev.SRAM.Powered() {
		r.dev.PowerOff(true)
	}
	if err := capture(); err != nil {
		return err
	}
	r.dev.PowerOff(true)
	_, err := r.dev.PowerOnContext(ctx, r.chamberC)
	return err
}

// SampleVotesIntoContext is SampleVotePlaneIntoContext unpacked into a
// caller-provided buffer of Device().SRAM.Cells() uint16 counters,
// which is overwritten, not accumulated into; the sampling path
// allocates nothing in steady state. An injector corrupts the buffer
// itself.
func (r *Rig) SampleVotesIntoContext(ctx context.Context, n int, out []uint16) error {
	if err := r.captureBurst(ctx, func() error {
		return r.dev.SRAM.CaptureVotesInto(ctx, n, r.chamberC, out)
	}); err != nil {
		return err
	}
	if r.injector != nil {
		r.injector.CorruptVotes(out, n, r.clockHours)
	}
	r.logf("sampled %d power-on states (per-cell votes)", n)
	return nil
}

// SampleVotePlaneIntoContext captures n power-on states and writes each
// cell's count of 1 readings into p, bit-sliced (see sram.VotePlane):
// the soft information the receiver decides, accumulates and takes
// statistics on. p is overwritten, not accumulated into, and the device
// is left powered. The burst rides the debugger link, which an injector
// may drop. An active injector corrupts a per-cell count view of the
// plane, and only the cells it changed are written back; an inert one
// still gets its CorruptVotes call, with an empty view.
func (r *Rig) SampleVotePlaneIntoContext(ctx context.Context, n int, p *sram.VotePlane) error {
	if err := r.captureBurst(ctx, func() error {
		return r.dev.SRAM.CaptureVotePlaneInto(ctx, n, r.chamberC, p)
	}); err != nil {
		return err
	}
	switch {
	case r.faultsActive():
		if cap(r.view) < p.Cells() {
			r.view = make([]uint16, p.Cells())
		}
		view := r.view[:p.Cells()]
		p.CountsInto(view)
		r.injector.CorruptVotes(view, n, r.clockHours)
		for i, v := range view {
			if p.Count(i) != v {
				p.SetCount(i, v)
			}
		}
	case r.injector != nil:
		r.injector.CorruptVotes(nil, n, r.clockHours)
	}
	r.logf("sampled %d power-on states (per-cell votes)", n)
	return nil
}

// SampleMajorityContext captures n power-on states at the chamber
// temperature and majority-votes them (Algorithm 2, lines 1–6). The
// device is left powered. Sampling is non-destructive (copy tolerance):
// it does not advance the aging clock measurably. The capture burst
// honours cancellation and fault injection (transient link drops,
// stuck/weak cell corruption).
func (r *Rig) SampleMajorityContext(ctx context.Context, n int) ([]byte, error) {
	var maj []byte
	if err := r.captureBurst(ctx, func() (err error) {
		maj, err = r.dev.SRAM.CaptureMajorityContext(ctx, n, r.chamberC)
		return err
	}); err != nil {
		return nil, err
	}
	if r.injector != nil {
		r.injector.CorruptSnapshot(maj, r.clockHours)
	}
	r.logf("sampled %d power-on states (majority vote)", n)
	return maj, nil
}
