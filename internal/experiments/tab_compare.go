package experiments

import (
	"fmt"
	"strings"

	"invisiblebits/internal/analog"
	"invisiblebits/internal/device"
	"invisiblebits/internal/flash"
	"invisiblebits/internal/flashsteg"
	"invisiblebits/internal/rng"
	"invisiblebits/internal/stats"
	"invisiblebits/internal/textplot"
)

func init() {
	register("tab3", "Qualitative comparison + rewrite-resilience experiment", "Table 3", runTable3)
	register("tab4", "Per-device encoding summary", "Table 4", runTable4)
	register("sec53", "Capacity vs Flash-based hiding (100x claim)", "§5.3", runSec53)
	register("sec74", "Adversarial aging noise injection and repair", "§7.4", runSec74)
}

// --- Table 3 ------------------------------------------------------------------

// Table3Result pairs the paper's qualitative claims with the measured
// rewrite-resilience experiment that grounds the "resilience" column.
type Table3Result struct {
	// Survived-rewrite error rates for each scheme's hidden message.
	ZuckErrAfterRewrite float64
	WangErrAfterRewrite float64
	IBErrAfterRewrite   float64 // Invisible Bits after full SRAM rewrite workload
	IBBaseErr           float64
}

// ID implements Result.
func (r *Table3Result) ID() string { return "tab3" }

// Summary implements Result.
func (r *Table3Result) Summary() string {
	return fmt.Sprintf("after adversary rewrite: Zuck loses message (%.0f%% err), Invisible Bits keeps it (%.1f%%→%.1f%%)",
		100*r.ZuckErrAfterRewrite, 100*r.IBBaseErr, 100*r.IBErrAfterRewrite)
}

// Render implements Result.
func (r *Table3Result) Render() string {
	qual := textplot.Table(
		[]string{"method", "ubiquity", "capacity", "resilience", "read stable"},
		[][]string{
			{"Zuck et al. (Flash Vt)", "fair", "poor (0.1%)", "poor (rewrite erases)", "good"},
			{"Wang et al. (Flash prog-time)", "fair", "poor (0.05%)", "fair (capacity-bound)", "fair"},
			{"Invisible Bits (SRAM aging)", "good (all SRAM devices)", "good (>90%)", "good (survives rewrite+shelf)", "good"},
		})
	meas := textplot.Table(
		[]string{"scheme", "hidden-message error after adversary rewrite"},
		[][]string{
			{"Zuck et al.", textplot.Percent(r.ZuckErrAfterRewrite)},
			{"Wang et al.", textplot.Percent(r.WangErrAfterRewrite)},
			{"Invisible Bits", fmt.Sprintf("%s (base %s)", textplot.Percent(r.IBErrAfterRewrite), textplot.Percent(r.IBBaseErr))},
		})
	return "Table 3 — on-chip information-hiding comparison\n\n" + qual +
		"\nmeasured rewrite-attack resilience:\n" + meas
}

func runTable3(cfg Config) (Result, error) {
	res := &Table3Result{}

	// Zuck baseline: encode, rewrite attack, decode.
	fspec := flash.DefaultSpec()
	fspec.PageBytes, fspec.Pages = 512, 512
	fz, err := flash.New(fspec)
	if err != nil {
		return nil, err
	}
	zuck, err := flashsteg.NewZuck(fz, 33)
	if err != nil {
		return nil, err
	}
	cover := make([]byte, 64<<10)
	rng.NewSource(3).Bytes(cover)
	zmsg := make([]byte, 64)
	rng.NewSource(4).Bytes(zmsg)
	if err := zuck.EncodeWithCover(cover, zmsg); err != nil {
		return nil, err
	}
	if err := flashsteg.RewriteAttack(fz, len(cover)); err != nil {
		return nil, err
	}
	zgot, err := zuck.Decode(len(cover), len(zmsg))
	if err != nil {
		return nil, err
	}
	res.ZuckErrAfterRewrite = stats.BitErrorRate(zgot, zmsg)

	// Wang baseline: wear survives a data rewrite.
	fspec.Seed = 7
	fw, err := flash.New(fspec)
	if err != nil {
		return nil, err
	}
	wang, err := flashsteg.NewWang(fw, 5)
	if err != nil {
		return nil, err
	}
	wmsg := make([]byte, 64)
	rng.NewSource(5).Bytes(wmsg)
	if err := wang.Encode(wmsg); err != nil {
		return nil, err
	}
	if err := flashsteg.RewriteAttack(fw, 32<<10); err != nil {
		return nil, err
	}
	wgot, err := wang.Decode(len(wmsg))
	if err != nil {
		return nil, err
	}
	res.WangErrAfterRewrite = stats.BitErrorRate(wgot, wmsg)

	// Invisible Bits: the adversary "can inspect, copy, overwrite, and
	// erase its digital contents" (§3) — model as overwriting the whole
	// SRAM repeatedly for an hour at nominal, then decode.
	dev, err := cfg.newDevice("MSP432P401", "tab3")
	if err != nil {
		return nil, err
	}
	payload := make([]byte, dev.SRAM.Bytes())
	rng.NewSource(6).Bytes(payload)
	if err := imprint(dev, payload, dev.Model.EncodingHours); err != nil {
		return nil, err
	}
	if res.IBBaseErr, err = cfg.rawError(dev, payload); err != nil {
		return nil, err
	}

	w := rng.NewWorkloadWriter(0x7ab3, 0)
	nominal := analog.Conditions{VoltageV: dev.Model.VNomV, TempC: dev.Model.TNomC}
	if err := dev.SRAM.OperateRandom(w, nominal, 1, 0.25); err != nil {
		return nil, err
	}
	if res.IBErrAfterRewrite, err = cfg.rawError(dev, payload); err != nil {
		return nil, err
	}
	return res, nil
}

// --- Table 4 ------------------------------------------------------------------

// Table4Row is one device's measured operating point.
type Table4Row struct {
	Device        string
	SRAMUsage     string
	VAcc          float64
	TAcc          float64
	BitRate       float64
	PaperBitRate  float64
	EncodingHours float64
}

// Table4Result reproduces Table 4.
type Table4Result struct {
	Rows []Table4Row
}

// ID implements Result.
func (r *Table4Result) ID() string { return "tab4" }

// Summary implements Result.
func (r *Table4Result) Summary() string {
	worst := 0.0
	for _, row := range r.Rows {
		d := row.BitRate - row.PaperBitRate
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	return fmt.Sprintf("all four devices within %.1f pp of the paper's bit rates", 100*worst)
}

// Render implements Result.
func (r *Table4Result) Render() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{
			row.Device, row.SRAMUsage,
			fmt.Sprintf("%.1fV", row.VAcc), fmt.Sprintf("%.0f°C", row.TAcc),
			fmt.Sprintf("%.1f%%", 100*row.BitRate),
			fmt.Sprintf("%.1f%%", 100*row.PaperBitRate),
			fmt.Sprintf("%g hours", row.EncodingHours),
		}
	}
	return "Table 4 — per-device encoding summary\n\n" + textplot.Table(
		[]string{"device", "SRAM usage", "V_acc", "T_acc", "bit rate (measured)", "bit rate (paper)", "encoding time"}, rows)
}

func runTable4(cfg Config) (Result, error) {
	res := &Table4Result{}
	for _, m := range device.Table4Models() {
		dev, err := cfg.newDevice(m.Name, "tab4")
		if err != nil {
			return nil, err
		}
		payload := make([]byte, dev.SRAM.Bytes())
		rng.NewSource(rng.HashString(m.Name)).Bytes(payload)
		if err := imprint(dev, payload, m.EncodingHours); err != nil {
			return nil, err
		}
		e, err := cfg.rawError(dev, payload)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Table4Row{
			Device:        m.Name,
			SRAMUsage:     string(m.SRAMRole),
			VAcc:          m.VAccV,
			TAcc:          m.TAccC,
			BitRate:       1 - e,
			PaperBitRate:  m.TargetBitRate,
			EncodingHours: m.EncodingHours,
		})
	}
	return res, nil
}

// --- §5.3 ---------------------------------------------------------------------

// Sec53Result quantifies the capacity comparison.
type Sec53Result struct {
	FlashBytes       int
	SRAMBytes        int
	WangCapacity     int     // bytes
	ZuckCapacity     int     // bytes
	IB5CopyCapacity  int     // bytes at <0.3% error (5-copy repetition)
	IB5CopyError     float64 // residual error at 5 copies (Eq. 1 on measured p)
	BestDeviceError  float64 // best-of-fleet single-copy error (§5.3's 2.7%)
	IB3CopyCapacity  int     // bytes on the best device with 3 copies
	IB3CopyError     float64
	FactorVsWang5    float64
	FactorVsWangBest float64
}

// ID implements Result.
func (r *Sec53Result) ID() string { return "sec53" }

// Summary implements Result.
func (r *Sec53Result) Summary() string {
	return fmt.Sprintf("Invisible Bits hides %.0fx more than the Flash program-time method (paper: 100x); best-device case %.0fx (paper: 160x)",
		r.FactorVsWang5, r.FactorVsWangBest)
}

// Render implements Result.
func (r *Sec53Result) Render() string {
	return "§5.3 — capacity comparison (MSP432P401: 256 KB Flash, 64 KB SRAM)\n\n" + textplot.Table(
		[]string{"scheme", "capacity", "residual error"},
		[][]string{
			{"Wang et al. (program time)", fmt.Sprintf("%d B", r.WangCapacity), "<0.3%"},
			{"Zuck et al. (voltage level)", fmt.Sprintf("%d B", r.ZuckCapacity), "<0.3%"},
			{"Invisible Bits, 5-copy repetition", fmt.Sprintf("%d B", r.IB5CopyCapacity), textplot.Percent(r.IB5CopyError)},
			{"Invisible Bits, best device + 3 copies", fmt.Sprintf("%d B", r.IB3CopyCapacity), textplot.Percent(r.IB3CopyError)},
		}) + fmt.Sprintf("\ncapacity factors vs Wang: %.0fx (5-copy), %.0fx (best device)\n",
		r.FactorVsWang5, r.FactorVsWangBest)
}

func runSec53(cfg Config) (Result, error) {
	msp, err := device.ByName("MSP432P401")
	if err != nil {
		return nil, err
	}
	res := &Sec53Result{FlashBytes: msp.FlashBytes, SRAMBytes: msp.SRAMBytes}

	fspec := flash.DefaultSpec()
	fspec.PageBytes = 512
	fspec.Pages = msp.FlashBytes / fspec.PageBytes
	f, err := flash.New(fspec)
	if err != nil {
		return nil, err
	}
	wang, err := flashsteg.NewWang(f, 1)
	if err != nil {
		return nil, err
	}
	zuck, err := flashsteg.NewZuck(f, 1)
	if err != nil {
		return nil, err
	}
	res.WangCapacity = wang.CapacityBytes()
	res.ZuckCapacity = zuck.CapacityBytes()

	// Measure the fleet's single-copy errors; best device drives the
	// §5.3 "encode many devices and select the one with the least error"
	// argument.
	best := 1.0
	var meanErr float64
	const fleet = 5
	for i := 0; i < fleet; i++ {
		e, err := cfg.encodeAndError("MSP432P401", fmt.Sprintf("sec53-%d", i), msp.EncodingHours)
		if err != nil {
			return nil, err
		}
		meanErr += e / fleet
		if e < best {
			best = e
		}
	}
	res.BestDeviceError = best

	res.IB5CopyCapacity = msp.SRAMBytes / 5
	res.IB5CopyError = stats.RepetitionErrorRate(1-meanErr, 5)

	res.IB3CopyCapacity = msp.SRAMBytes / 3
	res.IB3CopyError = stats.RepetitionErrorRate(1-best, 3)

	res.FactorVsWang5 = float64(res.IB5CopyCapacity) / float64(res.WangCapacity)
	res.FactorVsWangBest = float64(res.IB3CopyCapacity) / float64(res.WangCapacity)
	return res, nil
}

// --- §7.4 ---------------------------------------------------------------------

// Sec74Result is the adversarial-aging experiment.
type Sec74Result struct {
	BaseError        float64
	AfterAttack      float64
	AttackFactor     float64 // paper: ≈1.12x
	AfterRepair      float64
	RepairFactor     float64 // paper: ≈0.98x
	AttackConditions analog.Conditions
	RepairConditions analog.Conditions
}

// ID implements Result.
func (r *Sec74Result) ID() string { return "sec74" }

// Summary implements Result.
func (r *Sec74Result) Summary() string {
	return fmt.Sprintf("adversarial 1h aging: ×%.2f error (paper 1.12×); receiver re-aging 1.5h: ×%.2f (paper 0.98×)",
		r.AttackFactor, r.RepairFactor)
}

// Render implements Result.
func (r *Sec74Result) Render() string {
	return "§7.4 — adversarial aging to inject noise\n\n" + textplot.Table(
		[]string{"phase", "error", "factor", "conditions"},
		[][]string{
			{"encoded baseline", textplot.Percent(r.BaseError), "1.00x", "-"},
			{"after adversary ages 1h holding power-on state", textplot.Percent(r.AfterAttack),
				fmt.Sprintf("%.2fx", r.AttackFactor), r.AttackConditions.String()},
			{"after receiver re-encodes 1.5h", textplot.Percent(r.AfterRepair),
				fmt.Sprintf("%.2fx", r.RepairFactor), r.RepairConditions.String()},
		}) + strings.TrimLeft(`
interpretation: the adversary lacks a thermal chamber and the firmware
access to set SRAM precisely, so the attack runs at elevated voltage but
room temperature; the receiving party first decodes the message (ECC
removes channel errors), re-derives the exact payload, and re-encodes it
at full acceleration (§7.4: "The receiving party can reduce the impact of
noise by aging it in a similar way").
`, "\n")
}

func runSec74(cfg Config) (Result, error) {
	dev, err := cfg.newDevice("MSP432P401", "sec74")
	if err != nil {
		return nil, err
	}
	payload := make([]byte, dev.SRAM.Bytes())
	rng.NewSource(74).Bytes(payload)
	if err := imprint(dev, payload, dev.Model.EncodingHours); err != nil {
		return nil, err
	}
	base, err := cfg.rawError(dev, payload)
	if err != nil {
		return nil, err
	}

	// Attack: hold the power-on state (maximally destructive per §7.4)
	// for one hour at elevated voltage, room temperature.
	attack := analog.Conditions{VoltageV: dev.Model.VAccV, TempC: 25}
	snap, err := dev.SRAM.PowerCycle(25)
	if err != nil {
		return nil, err
	}
	if err := dev.SRAM.Write(snap); err != nil {
		return nil, err
	}
	if err := dev.Stress(attack, 1); err != nil {
		return nil, err
	}
	afterAttack, err := cfg.rawError(dev, payload)
	if err != nil {
		return nil, err
	}

	// Repair: §7.4 — "The receiving party can reduce the impact of noise
	// by aging it in a similar way", returning the error to ≈0.98× after
	// 1.5 h. The receiver first decodes the message (ECC removes the
	// channel errors), re-derives the exact payload, and re-encodes it for
	// 1.5 h at full acceleration: every cell is then held at its correct
	// value, so the adversary's freshly flipped marginal cells are pushed
	// back across the decision boundary while settled cells only gain
	// margin. (Blind re-aging with the observed power-on state cannot
	// restore under our calibrated week-scale recovery physics — see
	// EXPERIMENTS.md for the deviation note.)
	if err := imprint(dev, payload, 1.5); err != nil {
		return nil, err
	}
	afterRepair, err := cfg.rawError(dev, payload)
	if err != nil {
		return nil, err
	}

	return &Sec74Result{
		BaseError:        base,
		AfterAttack:      afterAttack,
		AttackFactor:     afterAttack / base,
		AfterRepair:      afterRepair,
		RepairFactor:     afterRepair / base,
		AttackConditions: attack,
		RepairConditions: dev.Model.Accelerated(),
	}, nil
}
