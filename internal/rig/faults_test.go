package rig

import (
	"context"
	"errors"
	"strings"
	"testing"

	"invisiblebits/internal/analog"
	"invisiblebits/internal/device"
	"invisiblebits/internal/faults"
	"invisiblebits/internal/progen"
	"invisiblebits/internal/sram"
)

func newFaultyRig(t *testing.T, model string, p faults.Profile) *Rig {
	t.Helper()
	m, err := device.ByName(model)
	if err != nil {
		t.Fatal(err)
	}
	d, err := device.New(m, "faulty-rig-test", device.WithSRAMLimit(4<<10))
	if err != nil {
		t.Fatal(err)
	}
	return New(d, WithInjector(faults.New(p, d.Serial)))
}

func TestSetVoltageSafeCeiling(t *testing.T) {
	r := newRig(t, "MSP432P401")
	ceil := r.Device().Model.SafeVoltageCeiling()
	// Exactly at the ceiling is allowed; just above is refused with the
	// destructive-overdrive sentinel.
	if err := r.SetVoltage(ceil); err != nil {
		t.Fatalf("voltage at ceiling refused: %v", err)
	}
	err := r.SetVoltage(ceil + 0.01)
	if !errors.Is(err, ErrUnsafeVoltage) {
		t.Fatalf("overdrive past ceiling returned %v, want ErrUnsafeVoltage", err)
	}
	// The refused setting must not have reached the rail.
	if got := r.Conditions().VoltageV; got != ceil {
		t.Fatalf("rail at %vV after refused overdrive, want %vV", got, ceil)
	}
	// The ceiling clears the accelerated operating point for every
	// catalog device (otherwise encoding itself would trip the guard).
	for _, m := range device.Catalog {
		if m.VAccV > m.SafeVoltageCeiling() {
			t.Errorf("%s: VAcc %.2fV above its own ceiling %.2fV", m.Name, m.VAccV, m.SafeVoltageCeiling())
		}
	}
}

func TestShelveForPoweredDevice(t *testing.T) {
	// A shelved device is by definition unpowered: ShelveFor on a powered
	// device must drop power first and still advance the clock.
	r := newRig(t, "MSP432P401")
	if _, err := r.PowerOn(); err != nil {
		t.Fatal(err)
	}
	if err := r.ShelveFor(12); err != nil {
		t.Fatalf("powered-device shelve failed: %v", err)
	}
	if r.Device().SRAM.Powered() {
		t.Error("device still powered after shelving")
	}
	if r.ClockHours() != 12 {
		t.Errorf("clock = %v, want 12", r.ClockHours())
	}
}

func TestErrNeedsBypassIsSentinel(t *testing.T) {
	r := newRig(t, "BCM2837")
	err := r.SetVoltage(2.2)
	if !errors.Is(err, ErrNeedsBypass) {
		t.Fatalf("err = %v, want ErrNeedsBypass", err)
	}
	// The bypass requirement is neither a transient nor a permanent
	// fault — it is an operator mistake, and retrying must not happen.
	if faults.IsTransient(err) || faults.IsPermanent(err) {
		t.Error("ErrNeedsBypass classified as an injected fault")
	}
}

func TestInjectedLinkDropIsTransient(t *testing.T) {
	r := newFaultyRig(t, "MSP432P401", faults.Profile{Seed: 3, LinkDropRate: 1})
	prog, err := progen.Assemble(progen.CamouflageProgram())
	if err != nil {
		t.Fatal(err)
	}
	lerr := r.LoadProgram(prog)
	if !faults.IsTransient(lerr) || !errors.Is(lerr, faults.ErrLinkDropped) {
		t.Fatalf("LoadProgram under certain link drop returned %v", lerr)
	}
	if _, serr := r.SampleMajorityContext(context.Background(), 5); !faults.IsTransient(serr) {
		t.Fatalf("SampleMajorityContext under certain link drop returned %v", serr)
	}
	joined := strings.Join(r.Events(), "\n")
	if !strings.Contains(joined, "FAULT") {
		t.Error("injected faults missing from the event log")
	}
}

func TestMidSoakDeathKillsDevice(t *testing.T) {
	r := newFaultyRig(t, "MSP432P401", faults.Profile{FailAtHours: 3})
	if _, err := r.PowerOn(); err != nil {
		t.Fatal(err)
	}
	err := r.StressForContext(context.Background(), 10)
	if !faults.IsPermanent(err) {
		t.Fatalf("mid-soak death returned %v", err)
	}
	// The clock stops at (slice-granular) death, not at the planned end.
	if c := r.ClockHours(); c < 2.5 || c >= 10 {
		t.Errorf("clock %vh after death at 3h", c)
	}
	if r.Device().Alive() {
		t.Error("device alive after permanent fault")
	}
	// Death is sticky across every later operation, with classification
	// preserved through the device layer.
	if _, err := r.PowerOn(); !faults.IsPermanent(err) {
		t.Errorf("PowerOn on dead device: %v", err)
	}
	prog, perr := progen.Assemble(progen.CamouflageProgram())
	if perr != nil {
		t.Fatal(perr)
	}
	if err := r.LoadProgram(prog); !faults.IsPermanent(err) {
		t.Errorf("LoadProgram on dead device: %v", err)
	}
}

func TestBrownoutPerturbsAppliedConditions(t *testing.T) {
	// A soak under a certain brownout must age the SRAM *less* than a
	// clean soak at the same nominal conditions: the sag is applied to
	// the device, not just logged.
	clean := newRig(t, "MSP432P401")
	browned := newFaultyRig(t, "MSP432P401", faults.Profile{
		Seed: 9, BrownoutRate: 1, BrownoutSagV: 1.0,
	})
	for _, r := range []*Rig{clean, browned} {
		if _, err := r.PowerOn(); err != nil {
			t.Fatal(err)
		}
		if err := r.Device().SRAM.Fill(0x00); err != nil {
			t.Fatal(err)
		}
		if err := r.SetVoltage(3.3); err != nil {
			t.Fatal(err)
		}
		r.SetTemperature(85)
		if err := r.StressForContext(context.Background(), 10); err != nil {
			t.Fatal(err)
		}
	}
	// Compare total accumulated bias magnitude: lower voltage → less
	// NBTI shift on every cell.
	sumAbs := func(r *Rig) float64 {
		var s float64
		arr := r.Device().SRAM
		for i := 0; i < arr.Cells(); i++ {
			s += arr.Bias(i)
		}
		return s
	}
	if b, c := sumAbs(browned), sumAbs(clean); b >= c {
		t.Errorf("browned-out soak aged as much as clean (%v >= %v)", b, c)
	}
	if !strings.Contains(strings.Join(browned.Events(), "\n"), "brownout") {
		t.Error("brownout missing from event log")
	}
}

func TestStressForContextCancellation(t *testing.T) {
	r := newFaultyRig(t, "MSP432P401", faults.Profile{})
	if _, err := r.PowerOn(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := r.StressForContext(ctx, 10); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled soak returned %v", err)
	}
	if _, err := r.SampleMajorityContext(ctx, 5); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled capture returned %v", err)
	}
}

func TestZeroFaultInjectorIsBitIdentical(t *testing.T) {
	// A mounted injector with a zero profile must leave every observable
	// output identical to a rig without one: the fault layer is strictly
	// opt-in.
	plain := newRig(t, "MSP432P401")
	zero := newFaultyRig(t, "MSP432P401", faults.Profile{})
	// Same serial ⇒ same silicon.
	m, _ := device.ByName("MSP432P401")
	d, err := device.New(m, "rig-test", device.WithSRAMLimit(4<<10))
	if err != nil {
		t.Fatal(err)
	}
	zero = New(d, WithInjector(faults.New(faults.Profile{}, d.Serial)))

	run := func(r *Rig) []byte {
		if _, err := r.PowerOn(); err != nil {
			t.Fatal(err)
		}
		if err := r.Device().SRAM.Fill(0x3C); err != nil {
			t.Fatal(err)
		}
		if err := r.SetVoltage(3.3); err != nil {
			t.Fatal(err)
		}
		r.SetTemperature(85)
		if err := r.StressForContext(context.Background(), 10); err != nil {
			t.Fatal(err)
		}
		r.SetTemperature(25)
		maj, err := r.SampleMajorityContext(context.Background(), 5)
		if err != nil {
			t.Fatal(err)
		}
		return maj
	}
	a, b := run(plain), run(zero)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("zero-profile injector changed capture byte %d", i)
		}
	}
	if plain.ClockHours() != zero.ClockHours() {
		t.Errorf("clocks diverged: %v vs %v", plain.ClockHours(), zero.ClockHours())
	}
}

// inertCounter is an injector that injects nothing and reports itself
// inert, counting its CorruptVotes calls and the view lengths it got.
type inertCounter struct {
	calls, cells int
}

func (c *inertCounter) Inert() bool                      { return true }
func (c *inertCounter) OpError(faults.Op, float64) error { return nil }
func (c *inertCounter) CorruptSnapshot([]byte, float64)  {}
func (c *inertCounter) CorruptVotes(v []uint16, _ int, _ float64) {
	c.calls, c.cells = c.calls+1, c.cells+len(v)
}
func (c *inertCounter) PerturbConditions(cond analog.Conditions, _ float64) (analog.Conditions, string) {
	return cond, ""
}

// TestSampleVotePlaneMatchesVotes: on twin rigs (same serial, same
// injector profile) the vote-plane sampler counts exactly what the
// uint16 sampler counts — with no injector, with an active one whose
// corrupted cells are written back into the plane, and with an inert
// one, which is still called, with an empty view. The uint16 sampler
// refuses a buffer of the wrong size instead of truncating.
func TestSampleVotePlaneMatchesVotes(t *testing.T) {
	active := faults.Profile{Seed: 3, StuckFrac: 0.05, WeakFrac: 0.1}
	for _, tc := range []struct {
		name string
		inj  func(serial string) faults.Injector
	}{
		{"none", func(string) faults.Injector { return nil }},
		{"active", func(s string) faults.Injector { return faults.New(active, s) }},
		{"inert", func(string) faults.Injector { return &inertCounter{} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mk := func() (*Rig, faults.Injector) {
				m, err := device.ByName("MSP432P401")
				if err != nil {
					t.Fatal(err)
				}
				d, err := device.New(m, "plane-twin", device.WithSRAMLimit(1<<10))
				if err != nil {
					t.Fatal(err)
				}
				var opts []Option
				inj := tc.inj(d.Serial)
				if inj != nil {
					opts = append(opts, WithInjector(inj))
				}
				return New(d, opts...), inj
			}
			rv, _ := mk()
			rp, injp := mk()
			votes := make([]uint16, rv.Device().SRAM.Cells())
			var plane sram.VotePlane
			for _, n := range []int{3, 6} {
				if err := rv.SampleVotesIntoContext(context.Background(), n, votes); err != nil {
					t.Fatal(err)
				}
				if err := rp.SampleVotePlaneIntoContext(context.Background(), n, &plane); err != nil {
					t.Fatal(err)
				}
				for i, v := range votes {
					if got := plane.Count(i); got != v {
						t.Fatalf("%d captures, cell %d: plane %d, votes %d", n, i, got, v)
					}
				}
			}
			if c, ok := injp.(*inertCounter); ok && (c.calls != 2 || c.cells != 0) {
				t.Fatalf("inert injector got %d CorruptVotes calls over %d cells, want 2 calls with empty views", c.calls, c.cells)
			}
			if err := rv.SampleVotesIntoContext(context.Background(), 3, votes[:len(votes)-1]); err == nil {
				t.Fatal("accepted short destination buffer")
			}
		})
	}
}
