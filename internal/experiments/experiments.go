// Package experiments regenerates every table and figure of the paper's
// evaluation (§5–§7) against the simulated device fleet. Each experiment
// is a named harness that returns a typed result carrying both the
// measured series and the paper's reference values, plus a text rendering
// for the cmd/ibexperiments tool. EXPERIMENTS.md records the
// paper-vs-measured comparison produced by these harnesses.
package experiments

import (
	"fmt"
	"sort"

	"invisiblebits/internal/device"
	"invisiblebits/internal/stats"
)

// Config controls experiment scale. The defaults trade a little
// statistical tightness for speed; Full() uses the devices' real sizes.
type Config struct {
	// SRAMLimitBytes caps instantiated SRAM per device (0 = model size).
	// Error rates are per-cell i.i.d., so a sample of the array measures
	// the same rates as the full device.
	SRAMLimitBytes int
	// Captures is the majority-vote sample count (paper default 5).
	Captures int
	// FleetSeed namespaces device serials so runs are reproducible but
	// experiments don't share silicon.
	FleetSeed string
}

// Default returns the fast configuration used by tests and benches.
func Default() Config {
	return Config{SRAMLimitBytes: 16 << 10, Captures: 5, FleetSeed: "exp"}
}

// Full returns the full-scale configuration (real SRAM sizes).
func Full() Config {
	return Config{SRAMLimitBytes: 0, Captures: 5, FleetSeed: "exp"}
}

func (c Config) captures() int {
	if c.Captures <= 0 {
		return 5
	}
	return c.Captures
}

// newDevice instantiates a model with a config-scoped serial.
func (c Config) newDevice(modelName, serial string) (*device.Device, error) {
	m, err := device.ByName(modelName)
	if err != nil {
		return nil, err
	}
	var opts []device.Option
	if c.SRAMLimitBytes > 0 {
		opts = append(opts, device.WithSRAMLimit(c.SRAMLimitBytes))
	}
	return device.New(m, c.FleetSeed+"/"+serial, opts...)
}

// imprint is the encoding half of the §5 raw-channel measurement: it
// writes payload into dev's SRAM, powering the device on at 25 °C first
// when it is off, and soaks it for hours at the model's accelerated
// point, through the regulator bypass on models that have one.
func imprint(dev *device.Device, payload []byte, hours float64) error {
	if !dev.SRAM.Powered() {
		if _, err := dev.PowerOn(25); err != nil {
			return err
		}
	}
	if err := dev.SRAM.Write(payload); err != nil {
		return err
	}
	if dev.Model.RequiresRegulatorBypass {
		return dev.StressBypassed(dev.Model.Accelerated(), hours)
	}
	return dev.Stress(dev.Model.Accelerated(), hours)
}

// recovered is the receiving half: the majority of the configured
// number of power-on captures at 25 °C, inverted back into the payload
// domain. The device is left powered.
func (c Config) recovered(dev *device.Device) ([]byte, error) {
	maj, err := dev.SRAM.CaptureMajority(c.captures(), 25)
	if err != nil {
		return nil, err
	}
	return invert(maj), nil
}

// rawError is the single-copy channel error of §5: the bit error of
// what the receiver recovers from dev against the imprinted payload.
func (c Config) rawError(dev *device.Device, payload []byte) (float64, error) {
	got, err := c.recovered(dev)
	if err != nil {
		return 0, err
	}
	return stats.BitErrorRate(got, payload), nil
}

// Result is what every experiment returns.
type Result interface {
	// ID is the experiment identifier (e.g. "fig6").
	ID() string
	// Summary is a one-line paper-vs-measured verdict.
	Summary() string
	// Render is the full text report (tables/ASCII charts).
	Render() string
}

// Runner executes one experiment.
type Runner func(Config) (Result, error)

// registration couples an ID with its runner and description.
type registration struct {
	id, title, paperRef string
	run                 Runner
}

var registry []registration

func register(id, title, paperRef string, run Runner) {
	registry = append(registry, registration{id: id, title: title, paperRef: paperRef, run: run})
}

// Info describes a registered experiment.
type Info struct {
	ID, Title, PaperRef string
}

// List returns all registered experiments sorted by ID.
func List() []Info {
	out := make([]Info, 0, len(registry))
	for _, r := range registry {
		out = append(out, Info{ID: r.id, Title: r.title, PaperRef: r.paperRef})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Run executes the experiment with the given ID.
func Run(id string, cfg Config) (Result, error) {
	for _, r := range registry {
		if r.id == id {
			return r.run(cfg)
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q", id)
}

// RunAll executes every registered experiment in ID order.
func RunAll(cfg Config) ([]Result, error) {
	infos := List()
	out := make([]Result, 0, len(infos))
	for _, info := range infos {
		res, err := Run(info.ID, cfg)
		if err != nil {
			return out, fmt.Errorf("experiments: %s: %w", info.ID, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// invert returns the bitwise complement (payload ↔ power-on state).
func invert(p []byte) []byte {
	out := make([]byte, len(p))
	for i, b := range p {
		out[i] = ^b
	}
	return out
}

// tile repeats pattern until it fills n bytes.
func tile(pattern []byte, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = pattern[i%len(pattern)]
	}
	return out
}
