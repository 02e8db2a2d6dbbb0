package device

import (
	"context"
	"fmt"

	"invisiblebits/internal/analog"
	"invisiblebits/internal/asm"
	"invisiblebits/internal/cpu"
	"invisiblebits/internal/flash"
	"invisiblebits/internal/rng"
	"invisiblebits/internal/sram"
)

// Memory map (ARM-flavoured): code executes from Flash, data lives in SRAM.
const (
	FlashBase = 0x00000000
	SRAMBase  = 0x20000000
)

// flashPageBytes is the erase-page size of every model's Flash.
const flashPageBytes = 512

// Device is one simulated board: a catalog Model instantiated with a
// serial number that determines its silicon fingerprint.
type Device struct {
	Model  Model
	Serial string

	SRAM *sram.Array
	// Flash is the firmware store, digital only: nothing reads a device's
	// Flash below its NOR contents. The §5.3 baselines build their own
	// analog flash.Array. Nil on models without on-chip Flash.
	Flash *flash.Store

	cpu        *cpu.CPU
	fatal      error          // non-nil once the device has died permanently
	refreshLog []RefreshEvent // maintenance ledger, persisted in the image
}

// RefreshEvent is one entry in the device's maintenance ledger: a
// re-stress that restored imprint margin. The ledger travels with the
// device image so the receiving party can audit how much accelerated
// aging the carrier has absorbed.
type RefreshEvent struct {
	ClockHours   float64 // rig simulated-clock time when the refresh ran
	StressHours  float64 // length of the re-stress soak
	MarginBefore float64 // array mean margin before the refresh
	MarginAfter  float64 // array mean margin after
}

// RecordRefresh appends a maintenance event to the device's ledger.
func (d *Device) RecordRefresh(ev RefreshEvent) {
	d.refreshLog = append(d.refreshLog, ev)
}

// RefreshLog returns a copy of the device's maintenance ledger.
func (d *Device) RefreshLog() []RefreshEvent {
	out := make([]RefreshEvent, len(d.refreshLog))
	copy(out, d.refreshLog)
	return out
}

// Option customizes device construction.
type Option func(*options)

type options struct {
	sramLimitBytes int
}

// WithSRAMLimit caps the instantiated SRAM size (bytes). Large devices
// (the BCM2837's 768 KB of cache) can be sampled at a smaller size for
// experiments — per-cell statistics are i.i.d., so error rates measured
// on a sample transfer to the full array. Capacity math always uses
// Model.SRAMBytes.
func WithSRAMLimit(bytes int) Option {
	return func(o *options) { o.sramLimitBytes = bytes }
}

// New instantiates a device. The serial number seeds process variation:
// two devices of the same model with different serials have different
// SRAM fingerprints; the same serial reproduces the same silicon.
func New(model Model, serial string, opts ...Option) (*Device, error) {
	if serial == "" {
		return nil, fmt.Errorf("device: serial must be non-empty")
	}
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	sramBytes := model.SRAMBytes
	if o.sramLimitBytes > 0 && o.sramLimitBytes < sramBytes {
		sramBytes = o.sramLimitBytes
	}
	rows, cols := geometry(sramBytes * 8)

	spec := sram.DefaultSpec()
	spec.Rows, spec.Cols = rows, cols
	spec.MismatchSigmaMv = model.MismatchSigmaMv
	spec.Aging = model.AgingParams()
	spec.Seed = rng.HashString(model.Name + "/" + serial)

	arr, err := sram.New(spec)
	if err != nil {
		return nil, fmt.Errorf("device %s: %w", model.Name, err)
	}

	var fl *flash.Store
	if model.FlashBytes > 0 {
		fl, err = flash.NewStore(flashPageBytes, model.FlashBytes/flashPageBytes)
		if err != nil {
			return nil, fmt.Errorf("device %s: %w", model.Name, err)
		}
	}

	return &Device{Model: model, Serial: serial, SRAM: arr, Flash: fl}, nil
}

// geometry picks a near-square power-of-two layout for bits cells.
func geometry(bits int) (rows, cols int) {
	cols = 1
	for cols*cols < bits {
		cols <<= 1
	}
	rows = bits / cols
	if rows == 0 {
		rows, cols = 1, bits
	}
	return rows, cols
}

// DeviceID returns the manufacturer device identifier used as the CTR
// nonce (§4.1: "the nonce is the manufacturer's device ID").
func (d *Device) DeviceID() string { return d.Model.Name + ":" + d.Serial }

// --- health -------------------------------------------------------------------

// Kill marks the device permanently dead (latch-up, bond-wire failure,
// overdrive accident). Every active operation afterwards fails with an
// error wrapping cause, so fault classification (faults.IsPermanent)
// survives the device layer. The first cause wins; later Kill calls are
// no-ops.
func (d *Device) Kill(cause error) {
	if d.fatal == nil {
		if cause == nil {
			cause = fmt.Errorf("killed")
		}
		d.fatal = cause
		d.SRAM.PowerOff(true)
		d.cpu = nil
	}
}

// Alive reports whether the device still responds.
func (d *Device) Alive() bool { return d.fatal == nil }

// guard returns the death error for active operations on a dead device.
func (d *Device) guard() error {
	if d.fatal != nil {
		return fmt.Errorf("device %s: %w", d.Model.Name, d.fatal)
	}
	return nil
}

// --- debugger interface ------------------------------------------------------

// LoadProgram writes an assembled image into Flash via the debug port,
// erasing the affected pages first (what a real flasher does). The paper
// "assembles this program and loads it onto the target device using the
// debugger" (§4.2).
func (d *Device) LoadProgram(prog *asm.Program) error {
	if err := d.guard(); err != nil {
		return err
	}
	if d.Flash == nil {
		return fmt.Errorf("device %s: no on-chip flash to program", d.Model.Name)
	}
	if prog.Origin != FlashBase {
		return fmt.Errorf("device: program origin %#x, want flash base %#x", prog.Origin, FlashBase)
	}
	if len(prog.Image) > d.Flash.Bytes() {
		return fmt.Errorf("device: image of %d bytes exceeds %d-byte flash", len(prog.Image), d.Flash.Bytes())
	}
	pageBytes := d.Flash.PageBytes()
	lastPage := (len(prog.Image) + pageBytes - 1) / pageBytes
	for p := 0; p < lastPage; p++ {
		if err := d.Flash.ErasePage(p); err != nil {
			return err
		}
	}
	return d.Flash.Program(0, prog.Image)
}

// ReadSRAM reads the SRAM contents over the debug port. For cache-SRAM
// devices this models the co-processor reads the paper describes
// ("processor cache access requires co-processor operations", §5).
func (d *Device) ReadSRAM() ([]byte, error) { return d.SRAM.Read() }

// --- power and execution -----------------------------------------------------

// PowerOn ramps the supply at ambient tempC, resolving the SRAM power-on
// state, and resets the CPU to the Flash entry point.
func (d *Device) PowerOn(tempC float64) ([]byte, error) {
	return d.PowerOnContext(context.Background(), tempC)
}

// PowerOnContext is PowerOn with cancellation: a fleet sweep can abandon
// a fingerprint read mid-race. On cancellation the device stays
// unpowered (the CPU is not reset) and the next power-on runs a fresh
// race.
func (d *Device) PowerOnContext(ctx context.Context, tempC float64) ([]byte, error) {
	if err := d.guard(); err != nil {
		return nil, err
	}
	snap, err := d.SRAM.PowerOnContext(ctx, tempC)
	if err != nil {
		return nil, err
	}
	d.cpu = cpu.New(&bus{d: d}, FlashBase)
	return snap, nil
}

// PowerOff drops the supply; dischargeFully selects whether remanence is
// eliminated (§5's measurement methodology) or left in place.
func (d *Device) PowerOff(dischargeFully bool) {
	d.SRAM.PowerOff(dischargeFully)
	d.cpu = nil
}

// PowerCycle discharges fully and powers back on.
func (d *Device) PowerCycle(tempC float64) ([]byte, error) {
	d.PowerOff(true)
	return d.PowerOn(tempC)
}

// Run executes the loaded firmware for at most maxSteps instructions.
func (d *Device) Run(maxSteps uint64) (cpu.StopReason, error) {
	if err := d.guard(); err != nil {
		return cpu.StopFault, err
	}
	if d.cpu == nil {
		return cpu.StopFault, fmt.Errorf("device %s: not powered", d.Model.Name)
	}
	if d.Flash == nil {
		return cpu.StopFault, fmt.Errorf("device %s: no firmware store", d.Model.Name)
	}
	return d.cpu.Run(maxSteps)
}

// Stress ages the device at conditions c for hours with its current SRAM
// contents — the thermal-chamber step (Algorithm 1, lines 5–6).
func (d *Device) Stress(c analog.Conditions, hours float64) error {
	if err := d.guard(); err != nil {
		return err
	}
	if d.Model.RequiresRegulatorBypass && c.VoltageV > d.Model.VNomV*1.05 {
		// §7.2: complex devices regulate the core rail; elevated stress
		// requires bypassing the regulator through its inductor pin. The
		// simulation models this as a required rig capability rather than
		// electronics; the rig package performs the bypass.
		return fmt.Errorf("device %s: core rail is regulated; use rig.BypassRegulator", d.Model.Name)
	}
	return d.SRAM.Stress(c, hours)
}

// StressBypassed is the §7.2 path: the rig has attached to the regulator
// inductor pin and drives the core rail directly.
func (d *Device) StressBypassed(c analog.Conditions, hours float64) error {
	if err := d.guard(); err != nil {
		return err
	}
	return d.SRAM.Stress(c, hours)
}

// Shelve lets the unpowered device recover naturally for hours (§5.1.3).
func (d *Device) Shelve(hours float64) error { return d.SRAM.Shelve(hours) }

// ShelveAt stores the unpowered device at tempC for hours; hot storage
// accelerates recovery (the adversarial "baking attack" surface).
func (d *Device) ShelveAt(hours, tempC float64) error { return d.SRAM.ShelveAt(hours, tempC) }

// --- memory bus ---------------------------------------------------------------

// bus routes CPU accesses: Flash is execute/read-only at runtime, SRAM is
// read/write while powered.
type bus struct{ d *Device }

func (b *bus) route(addr uint32) (inFlash bool, off int, err error) {
	switch {
	case b.d.Flash != nil && addr >= FlashBase && addr < FlashBase+uint32(b.d.Flash.Bytes()):
		return true, int(addr - FlashBase), nil
	case addr >= SRAMBase && addr < SRAMBase+uint32(b.d.SRAM.Bytes()):
		return false, int(addr - SRAMBase), nil
	default:
		return false, 0, fmt.Errorf("bus fault at %#08x", addr)
	}
}

func (b *bus) Load8(addr uint32) (byte, error) {
	inFlash, off, err := b.route(addr)
	if err != nil {
		return 0, err
	}
	if inFlash {
		return b.d.Flash.ByteAt(off)
	}
	return b.d.SRAM.ByteAt(off)
}

func (b *bus) Store8(addr uint32, v byte) error {
	inFlash, off, err := b.route(addr)
	if err != nil {
		return err
	}
	if inFlash {
		return fmt.Errorf("bus: store to flash at %#08x (flash is not writable at runtime)", addr)
	}
	return b.d.SRAM.SetByteAt(off, v)
}

func (b *bus) Load32(addr uint32) (uint32, error) {
	var v uint32
	for k := 0; k < 4; k++ {
		bb, err := b.Load8(addr + uint32(k))
		if err != nil {
			return 0, err
		}
		v |= uint32(bb) << (8 * k)
	}
	return v, nil
}

func (b *bus) Store32(addr uint32, v uint32) error {
	for k := 0; k < 4; k++ {
		if err := b.Store8(addr+uint32(k), byte(v>>(8*k))); err != nil {
			return err
		}
	}
	return nil
}
