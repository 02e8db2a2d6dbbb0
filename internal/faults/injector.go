package faults

import (
	"fmt"
	"sync"

	"invisiblebits/internal/analog"
	"invisiblebits/internal/rng"
)

// Op names a rig operation for the injector's hook points.
type Op string

// Rig operations the injector is consulted about.
const (
	// OpLoadProgram is a firmware flash over the debugger link.
	OpLoadProgram Op = "load-program"
	// OpPowerOn is a supply ramp.
	OpPowerOn Op = "power-on"
	// OpCapture is a power-on state sampling burst over the link.
	OpCapture Op = "capture"
	// OpStress is one slice of a thermal-chamber soak.
	OpStress Op = "stress"
)

// Injector is consulted by the rig at its hook points. A nil Injector
// (the default) disables fault injection entirely.
//
// Implementations must be safe for use from the single goroutine that
// owns the rig; the seeded implementation below is additionally safe for
// concurrent use so one injector can be shared across fleet workers.
type Injector interface {
	// OpError is consulted immediately before the rig performs op at the
	// given simulated clock. A non-nil return injects that failure; the
	// rig classifies it via IsTransient / IsPermanent.
	OpError(op Op, clockHours float64) error

	// PerturbConditions maps the conditions the rig *intends* to apply
	// during one stress slice to the conditions the device actually
	// experiences (supply brownout, chamber excursion). The returned
	// string describes the disturbance for the rig's event log; empty
	// means the slice ran clean.
	PerturbConditions(c analog.Conditions, clockHours float64) (analog.Conditions, string)

	// CorruptSnapshot applies cell-level faults (stuck-at and weak cells)
	// to a power-on capture, in place. data is bit-packed, LSB-first.
	CorruptSnapshot(data []byte, clockHours float64)

	// CorruptVotes applies the same cell-level faults to per-cell vote
	// counts out of captures power-ons, in place.
	CorruptVotes(votes []uint16, captures int, clockHours float64)
}

// Profile parameterizes the seeded injector. The zero value injects
// nothing; each field switches on one fault class from the lab's hazard
// model.
type Profile struct {
	// Seed decorrelates campaigns. The same (Seed, serial) pair replays
	// the same failure sequence.
	Seed uint64

	// LinkDropRate is the per-operation probability that a debugger-link
	// operation (OpLoadProgram, OpCapture) fails transiently.
	LinkDropRate float64

	// BrownoutRate is the per-stress-slice probability of a supply
	// brownout; the applied voltage sags by up to BrownoutSagV.
	BrownoutRate float64
	// BrownoutSagV is the maximum supply sag in volts.
	BrownoutSagV float64

	// ExcursionRate is the per-stress-slice probability of a chamber
	// temperature excursion of up to ±ExcursionDeltaC.
	ExcursionRate float64
	// ExcursionDeltaC is the maximum excursion magnitude in °C.
	ExcursionDeltaC float64

	// StuckFrac is the fraction of SRAM cells stuck at a fixed power-on
	// value — defects beyond even §5.1.1's extreme-mismatch population.
	StuckFrac float64
	// WeakFrac is the fraction of cells whose power-on state is pure
	// noise (weak cells: neither aging nor mismatch decides them).
	WeakFrac float64

	// FailAtHours kills the device permanently once the simulated clock
	// reaches this time. Zero means the device is immortal.
	FailAtHours float64
}

// SeededInjector is the deterministic reference Injector. Every decision
// is derived by hashing (seed, serial, decision site, simulated clock,
// per-site sequence number), so a campaign replays exactly under a fixed
// seed regardless of wall-clock scheduling.
type SeededInjector struct {
	profile Profile
	serial  string
	base    uint64

	mu    sync.Mutex
	seq   map[string]uint64
	dead  bool
	masks map[int]*cellMask
}

// New builds a SeededInjector for the device with the given serial.
func New(p Profile, serial string) *SeededInjector {
	return &SeededInjector{
		profile: p,
		serial:  serial,
		base:    p.Seed ^ rng.HashString("faults/"+serial),
		seq:     make(map[string]uint64),
		masks:   make(map[int]*cellMask),
	}
}

// Inert reports whether the profile injects nothing at all. The rig uses
// this to keep a zero-profile campaign on the exact single-shot stress
// path, guaranteeing bit-identical outputs to a rig with no injector.
func (f *SeededInjector) Inert() bool { return f.profile == (Profile{}) }

// roll returns a uniform [0,1) variate for one decision site. The
// per-site sequence counter distinguishes repeated decisions at the same
// simulated instant (e.g. retries of a flash before any time passes).
func (f *SeededInjector) roll(site string, clockHours float64) float64 {
	f.mu.Lock()
	n := f.seq[site]
	f.seq[site] = n + 1
	f.mu.Unlock()
	h := rng.HashString(fmt.Sprintf("%s|%.6f|%d", site, clockHours, n))
	return rng.NewSource(f.base ^ h).Float64()
}

// OpError implements Injector.
func (f *SeededInjector) OpError(op Op, clockHours float64) error {
	f.mu.Lock()
	dead := f.dead
	if !dead && f.profile.FailAtHours > 0 && clockHours >= f.profile.FailAtHours {
		f.dead = true
		dead = true
	}
	f.mu.Unlock()
	if dead {
		return fmt.Errorf("device %s at t=%.2fh: %w", f.serial, clockHours, ErrDeviceDead)
	}
	switch op {
	case OpLoadProgram, OpCapture:
		if f.profile.LinkDropRate > 0 && f.roll("link/"+string(op), clockHours) < f.profile.LinkDropRate {
			return fmt.Errorf("device %s %s at t=%.2fh: %w", f.serial, op, clockHours, ErrLinkDropped)
		}
	}
	return nil
}

// PerturbConditions implements Injector.
func (f *SeededInjector) PerturbConditions(c analog.Conditions, clockHours float64) (analog.Conditions, string) {
	note := ""
	if f.profile.BrownoutRate > 0 && f.roll("brownout", clockHours) < f.profile.BrownoutRate {
		sag := f.profile.BrownoutSagV * (0.5 + 0.5*f.roll("brownout-mag", clockHours))
		c.VoltageV -= sag
		if c.VoltageV < 0 {
			c.VoltageV = 0
		}
		note = fmt.Sprintf("brownout −%.2fV", sag)
	}
	if f.profile.ExcursionRate > 0 && f.roll("excursion", clockHours) < f.profile.ExcursionRate {
		mag := f.profile.ExcursionDeltaC * (0.5 + 0.5*f.roll("excursion-mag", clockHours))
		if f.roll("excursion-sign", clockHours) < 0.5 {
			mag = -mag
		}
		c.TempC += mag
		if note != "" {
			note += ", "
		}
		note += fmt.Sprintf("chamber excursion %+.1f°C", mag)
	}
	return c, note
}

// cellMask is the per-array defect map: which cells are stuck (and at
// what), and which are weak.
type cellMask struct {
	stuckIdx []int
	stuckVal []bool
	weakIdx  []int
}

// mask lazily derives the defect map for an array of nCells cells. The
// map is a pure function of (seed, serial, nCells), so the same device
// exhibits the same defects across the whole campaign, like real
// silicon.
func (f *SeededInjector) mask(nCells int) *cellMask {
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.masks[nCells]; ok {
		return m
	}
	m := &cellMask{}
	if f.profile.StuckFrac > 0 || f.profile.WeakFrac > 0 {
		src := rng.NewSource(f.base ^ rng.HashString(fmt.Sprintf("cellmask/%d", nCells)))
		for i := 0; i < nCells; i++ {
			u := src.Float64()
			switch {
			case u < f.profile.StuckFrac:
				m.stuckIdx = append(m.stuckIdx, i)
				m.stuckVal = append(m.stuckVal, src.Float64() < 0.5)
			case u < f.profile.StuckFrac+f.profile.WeakFrac:
				m.weakIdx = append(m.weakIdx, i)
			}
		}
	}
	f.masks[nCells] = m
	return m
}

// CorruptSnapshot implements Injector.
func (f *SeededInjector) CorruptSnapshot(data []byte, clockHours float64) {
	m := f.mask(len(data) * 8)
	for k, i := range m.stuckIdx {
		if m.stuckVal[k] {
			data[i/8] |= 1 << (i % 8)
		} else {
			data[i/8] &^= 1 << (i % 8)
		}
	}
	for _, i := range m.weakIdx {
		if f.roll("weak", clockHours) < 0.5 {
			data[i/8] |= 1 << (i % 8)
		} else {
			data[i/8] &^= 1 << (i % 8)
		}
	}
}

// CorruptVotes implements Injector.
func (f *SeededInjector) CorruptVotes(votes []uint16, captures int, clockHours float64) {
	m := f.mask(len(votes))
	for k, i := range m.stuckIdx {
		if m.stuckVal[k] {
			votes[i] = uint16(captures)
		} else {
			votes[i] = 0
		}
	}
	for _, i := range m.weakIdx {
		// A weak cell's captures are independent coin flips.
		n := uint16(0)
		for c := 0; c < captures; c++ {
			if f.roll("weak-vote", clockHours) < 0.5 {
				n++
			}
		}
		votes[i] = n
	}
}
