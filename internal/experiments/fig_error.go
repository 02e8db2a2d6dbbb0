package experiments

import (
	"bytes"
	"fmt"
	"strings"

	"invisiblebits/internal/analog"
	"invisiblebits/internal/rng"
	"invisiblebits/internal/stats"
	"invisiblebits/internal/textplot"
)

func init() {
	register("fig6", "Encoding error vs stress time across five devices", "Fig. 6", runFig6)
	register("tab2", "Spatial autocorrelation before/after stress", "Table 2", runTable2)
	register("fig7", "Natural recovery over 14 shelved weeks", "Fig. 7", runFig7)
	register("sec514", "Message retention under a week of random writes", "§5.1.4", runSec514)
}

// encodeAndError imprints a random payload for stressHours and returns
// the measured raw error.
func (c Config) encodeAndError(modelName, serial string, stressHours float64) (float64, error) {
	dev, err := c.newDevice(modelName, serial)
	if err != nil {
		return 0, err
	}
	payload := make([]byte, dev.SRAM.Bytes())
	rng.NewSource(rng.HashString(serial)).Bytes(payload)
	if err := imprint(dev, payload, stressHours); err != nil {
		return 0, err
	}
	return c.rawError(dev, payload)
}

// --- Fig. 6 -------------------------------------------------------------------

// Fig6Result is the error-vs-stress-time sweep over five devices.
type Fig6Result struct {
	Hours    []float64
	Mean     []float64 // mean error across devices
	Min, Max []float64
	// PaperAnchor10h is the §5.2 reference: 6.5% at 10 h.
	PaperAnchor10h float64
}

// ID implements Result.
func (r *Fig6Result) ID() string { return "fig6" }

// Summary implements Result.
func (r *Fig6Result) Summary() string {
	last := len(r.Hours) - 1
	return fmt.Sprintf("error falls %.1f%%→%.1f%% from %gh to %gh (paper: ~33%%→6.5%%), logarithmic in time",
		100*r.Mean[0], 100*r.Mean[last], r.Hours[0], r.Hours[last])
}

// Render implements Result.
func (r *Fig6Result) Render() string {
	rows := make([][]string, len(r.Hours))
	for i := range r.Hours {
		rows[i] = []string{
			fmt.Sprintf("%g", r.Hours[i]),
			textplot.Percent(r.Mean[i]),
			textplot.Percent(r.Min[i]),
			textplot.Percent(r.Max[i]),
		}
	}
	var sb strings.Builder
	sb.WriteString("Fig. 6 — influence of stress time on error (5 MSP432 devices)\n\n")
	sb.WriteString(textplot.Table([]string{"stress [h]", "mean", "min", "max"}, rows))
	sb.WriteByte('\n')
	sb.WriteString(textplot.Chart("error vs stress time", "stress [h]", "error",
		[]textplot.Series{{Name: "mean", X: r.Hours, Y: r.Mean}}, 60, 12))
	return sb.String()
}

func runFig6(cfg Config) (Result, error) {
	hours := []float64{2, 3, 4, 5, 6, 7, 8, 9, 10}
	const devices = 5
	res := &Fig6Result{Hours: hours, PaperAnchor10h: 0.065}
	res.Mean = make([]float64, len(hours))
	res.Min = make([]float64, len(hours))
	res.Max = make([]float64, len(hours))
	for i := range res.Min {
		res.Min[i] = 1
	}

	for d := 0; d < devices; d++ {
		dev, err := cfg.newDevice("MSP432P401", fmt.Sprintf("fig6-%d", d))
		if err != nil {
			return nil, err
		}
		payload := make([]byte, dev.SRAM.Bytes())
		rng.NewSource(uint64(1000 + d)).Bytes(payload)
		prev := 0.0
		for hi, h := range hours {
			// Incremental soak: stress composes (see analog tests), so one
			// device sweeps the whole time axis like the paper's.
			if err := imprint(dev, payload, h-prev); err != nil {
				return nil, err
			}
			prev = h
			e, err := cfg.rawError(dev, payload)
			if err != nil {
				return nil, err
			}
			res.Mean[hi] += e / devices
			if e < res.Min[hi] {
				res.Min[hi] = e
			}
			if e > res.Max[hi] {
				res.Max[hi] = e
			}
		}
	}
	return res, nil
}

// --- Table 2 ------------------------------------------------------------------

// Table2Row is one measurement of spatial autocorrelation.
type Table2Row struct {
	Condition string
	SRAM      int
	MoranI    float64
	PValue    float64
	Expected  float64
}

// Table2Result reproduces Table 2.
type Table2Result struct {
	Rows []Table2Row
}

// ID implements Result.
func (r *Table2Result) ID() string { return "tab2" }

// Summary implements Result.
func (r *Table2Result) Summary() string {
	maxI := 0.0
	for _, row := range r.Rows {
		if row.MoranI > maxI {
			maxI = row.MoranI
		}
	}
	return fmt.Sprintf("all Moran's I ≤ %.3f — power-on states and stress errors are spatially random (paper: 0.004–0.011)", maxI)
}

// Render implements Result.
func (r *Table2Result) Render() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{
			row.Condition, fmt.Sprintf("%d", row.SRAM),
			fmt.Sprintf("%.4f", row.MoranI), fmt.Sprintf("%.3g", row.PValue),
		}
	}
	return "Table 2 — spatial autocorrelation of power-on states / stress errors\n\n" +
		textplot.Table([]string{"condition", "SRAM", "Moran's I", "p-value"}, rows)
}

func runTable2(cfg Config) (Result, error) {
	res := &Table2Result{}

	// Unstressed devices: Moran's I of the raw power-on state.
	for i := 1; i <= 2; i++ {
		dev, err := cfg.newDevice("MSP432P401", fmt.Sprintf("tab2-clean%d", i))
		if err != nil {
			return nil, err
		}
		snap, err := dev.PowerOn(25)
		if err != nil {
			return nil, err
		}
		m, err := moranOfSnapshot(snap, dev.SRAM.Rows(), dev.SRAM.Cols())
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Table2Row{
			Condition: "Unstressed", SRAM: i, MoranI: m.I, PValue: m.PValue, Expected: m.Expected,
		})
	}

	// Stressed with a single logic value: Moran's I of the *error* map.
	for i, fill := range []byte{0xFF, 0x00} {
		dev, err := cfg.newDevice("MSP432P401", fmt.Sprintf("tab2-stress%d", i))
		if err != nil {
			return nil, err
		}
		if err := imprint(dev, bytes.Repeat([]byte{fill}, dev.SRAM.Bytes()), dev.Model.EncodingHours); err != nil {
			return nil, err
		}
		got, err := cfg.recovered(dev)
		if err != nil {
			return nil, err
		}
		// An error cell is one whose recovered bit differs from the
		// stressed value.
		errBits := make([]byte, dev.SRAM.Cells())
		for b := range errBits {
			errBits[b] = (got[b/8] ^ fill) >> (b % 8) & 1
		}
		m, err := stats.MoranIBits(errBits, dev.SRAM.Rows(), dev.SRAM.Cols())
		if err != nil {
			return nil, err
		}
		label := fmt.Sprintf("Stressed (logic = %d)", b2i(fill == 0xFF))
		res.Rows = append(res.Rows, Table2Row{
			Condition: label, SRAM: i + 1, MoranI: m.I, PValue: m.PValue, Expected: m.Expected,
		})
	}
	return res, nil
}

func moranOfSnapshot(snap []byte, rows, cols int) (stats.MoranResult, error) {
	bits := make([]byte, rows*cols)
	for i := range bits {
		if snap[i/8]&(1<<(i%8)) != 0 {
			bits[i] = 1
		}
	}
	return stats.MoranIBits(bits, rows, cols)
}

// --- Fig. 7 -------------------------------------------------------------------

// Fig7Result is the shelved-recovery sweep.
type Fig7Result struct {
	Weeks           []float64
	NormalizedError []float64 // error(t)/error(0)
	RecoveryRatePct []float64 // week-over-week change in error, %
	BaseError       float64
}

// ID implements Result.
func (r *Fig7Result) ID() string { return "fig7" }

// Summary implements Result.
func (r *Fig7Result) Summary() string {
	month := r.NormalizedError[4] // index 4 = week 4
	last := r.NormalizedError[len(r.NormalizedError)-1]
	return fmt.Sprintf("error ×%.2f after 4 weeks (paper ≈1.6×), ×%.2f at week 14 (paper ≈2.0×); rate decays", month, last)
}

// Render implements Result.
func (r *Fig7Result) Render() string {
	rows := make([][]string, len(r.Weeks))
	for i := range r.Weeks {
		rows[i] = []string{
			fmt.Sprintf("%g", r.Weeks[i]),
			fmt.Sprintf("%.3f", r.NormalizedError[i]),
			fmt.Sprintf("%.2f", r.RecoveryRatePct[i]),
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Fig. 7 — natural recovery (base error %.2f%%)\n\n", 100*r.BaseError)
	sb.WriteString(textplot.Table([]string{"weeks", "normalized error", "recovery rate [%]"}, rows))
	sb.WriteByte('\n')
	sb.WriteString(textplot.Chart("normalized error vs shelf time", "weeks", "error / base",
		[]textplot.Series{{Name: "normalized", X: r.Weeks, Y: r.NormalizedError}}, 60, 12))
	return sb.String()
}

func runFig7(cfg Config) (Result, error) {
	dev, err := cfg.newDevice("MSP432P401", "fig7")
	if err != nil {
		return nil, err
	}
	payload := make([]byte, dev.SRAM.Bytes())
	rng.NewSource(77).Bytes(payload)
	if err := imprint(dev, payload, dev.Model.EncodingHours); err != nil {
		return nil, err
	}

	res := &Fig7Result{}
	measure := func() (float64, error) {
		e, err := cfg.rawError(dev, payload)
		dev.PowerOff(true)
		return e, err
	}
	base, err := measure()
	if err != nil {
		return nil, err
	}
	res.BaseError = base

	prevErr := base
	for week := 0; week <= 14; week++ {
		if week > 0 {
			if err := dev.Shelve(7 * 24); err != nil {
				return nil, err
			}
		}
		e, err := measure()
		if err != nil {
			return nil, err
		}
		res.Weeks = append(res.Weeks, float64(week))
		res.NormalizedError = append(res.NormalizedError, e/base)
		res.RecoveryRatePct = append(res.RecoveryRatePct, 100*(e-prevErr)/base)
		prevErr = e
	}
	return res, nil
}

// --- §5.1.4 -------------------------------------------------------------------

// Sec514Result compares error growth under normal operation vs shelf.
type Sec514Result struct {
	BaseError       float64
	OperationFactor float64 // after one week of pseudo-random writes
	ShelfFactor     float64 // after one week shelved
}

// ID implements Result.
func (r *Sec514Result) ID() string { return "sec514" }

// Summary implements Result.
func (r *Sec514Result) Summary() string {
	return fmt.Sprintf("1 week of random writes: ×%.2f error (paper ≈1.2×) vs ×%.2f shelved (paper ≈1.4×) — operation is gentler",
		r.OperationFactor, r.ShelfFactor)
}

// Render implements Result.
func (r *Sec514Result) Render() string {
	return "§5.1.4 — effect of normal operation\n\n" + textplot.Table(
		[]string{"condition", "error factor after 1 week", "paper"},
		[][]string{
			{"continuous pseudo-random writes (LFSR+LCG)", fmt.Sprintf("%.2fx", r.OperationFactor), "≈1.2x"},
			{"shelved (natural recovery)", fmt.Sprintf("%.2fx", r.ShelfFactor), "≈1.4x"},
		})
}

func runSec514(cfg Config) (Result, error) {
	// Operation device.
	devOp, err := cfg.newDevice("MSP432P401", "sec514-op")
	if err != nil {
		return nil, err
	}
	payload := make([]byte, devOp.SRAM.Bytes())
	rng.NewSource(514).Bytes(payload)
	if err := imprint(devOp, payload, devOp.Model.EncodingHours); err != nil {
		return nil, err
	}
	base, err := cfg.rawError(devOp, payload)
	if err != nil {
		return nil, err
	}

	w := rng.NewWorkloadWriter(0x514, 0)
	nominal := analog.Conditions{VoltageV: devOp.Model.VNomV, TempC: devOp.Model.TNomC}
	if err := devOp.SRAM.OperateRandom(w, nominal, 7*24, 4); err != nil {
		return nil, err
	}
	opErr, err := cfg.rawError(devOp, payload)
	if err != nil {
		return nil, err
	}

	// Shelf device (same silicon, same payload, same encode).
	devSh, err := cfg.newDevice("MSP432P401", "sec514-op")
	if err != nil {
		return nil, err
	}
	if err := imprint(devSh, payload, devSh.Model.EncodingHours); err != nil {
		return nil, err
	}
	baseSh, err := cfg.rawError(devSh, payload)
	if err != nil {
		return nil, err
	}
	devSh.PowerOff(true)
	if err := devSh.Shelve(7 * 24); err != nil {
		return nil, err
	}
	shErr, err := cfg.rawError(devSh, payload)
	if err != nil {
		return nil, err
	}

	return &Sec514Result{
		BaseError:       base,
		OperationFactor: opErr / base,
		ShelfFactor:     shErr / baseSh,
	}, nil
}
