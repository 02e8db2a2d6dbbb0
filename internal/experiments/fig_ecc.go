package experiments

import (
	"fmt"
	"math"
	"strings"

	"invisiblebits/internal/device"
	"invisiblebits/internal/ecc"
	"invisiblebits/internal/imaging"
	"invisiblebits/internal/rng"
	"invisiblebits/internal/stats"
	"invisiblebits/internal/textplot"
)

func init() {
	register("fig8", "Repetition code cleaning a decoded image", "Fig. 8", runFig8)
	register("fig9", "Error vs payload copies and stress time", "Fig. 9", runFig9)
	register("fig10", "Repetition + Hamming(7,4) vs Bernoulli theory", "Fig. 10", runFig10)
	register("fig15", "Error–capacity trade-off across device classes", "Fig. 15", runFig15)
}

// encodeCopies writes `copies` tiled copies of unit into dev, fills the
// rest of the array with random cover seeded by the cover name so the
// whole array is driven, soaks it for stressHours at accelerated
// conditions, and returns the recovered copies.
func (c Config) encodeCopies(dev *device.Device, cover string, unit []byte, copies int, stressHours float64) ([]byte, error) {
	n := len(unit) * copies
	if n > dev.SRAM.Bytes() {
		return nil, fmt.Errorf("experiments: %d copies of %d bytes exceed SRAM", copies, len(unit))
	}
	full := make([]byte, dev.SRAM.Bytes())
	rng.NewSource(rng.HashString(cover)).Bytes(full)
	for i := 0; i < copies; i++ {
		copy(full[i*len(unit):], unit)
	}
	if err := imprint(dev, full, stressHours); err != nil {
		return nil, err
	}
	got, err := c.recovered(dev)
	if err != nil {
		return nil, err
	}
	return got[:n], nil
}

// --- Fig. 8 -------------------------------------------------------------------

// Fig8Result holds decoded images at increasing copy counts.
type Fig8Result struct {
	Copies []int
	Images []*imaging.Bitmap
	Errors []float64 // pixel error vs the original
}

// ID implements Result.
func (r *Fig8Result) ID() string { return "fig8" }

// Summary implements Result.
func (r *Fig8Result) Summary() string {
	return fmt.Sprintf("image pixel error %.1f%%→%.2f%% as copies go %d→%d",
		100*r.Errors[0], 100*r.Errors[len(r.Errors)-1], r.Copies[0], r.Copies[len(r.Copies)-1])
}

// Render implements Result.
func (r *Fig8Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Fig. 8 — repetition code removing error from a decoded image\n")
	for i, n := range r.Copies {
		fmt.Fprintf(&sb, "\n%d cop%s (pixel error %.2f%%):\n", n, plural(n, "y", "ies"), 100*r.Errors[i])
		sb.WriteString(r.Images[i].ASCII())
	}
	return sb.String()
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

func runFig8(cfg Config) (Result, error) {
	glyph := imaging.Glyph()
	unit := glyph.Pack()
	const maxCopies = 7
	dev, err := cfg.newDevice("MSP432P401", "fig8")
	if err != nil {
		return nil, err
	}
	recovered, err := cfg.encodeCopies(dev, "fig8", unit, maxCopies, 6) // short soak → visible single-copy noise
	if err != nil {
		return nil, err
	}
	res := &Fig8Result{}
	for _, n := range []int{1, 3, 5, 7} {
		voted, err := ecc.Repetition{N: n}.Decode(recovered[:n*len(unit)], len(unit))
		if err != nil {
			return nil, err
		}
		img, err := imaging.Unpack(voted, 32, 32)
		if err != nil {
			return nil, err
		}
		e, err := imaging.ErrorRate(img, glyph)
		if err != nil {
			return nil, err
		}
		res.Copies = append(res.Copies, n)
		res.Images = append(res.Images, img)
		res.Errors = append(res.Errors, e)
	}
	return res, nil
}

// --- Fig. 9 -------------------------------------------------------------------

// Fig9Result sweeps copies × stress time.
type Fig9Result struct {
	Copies []int
	Hours  []float64
	Errors [][]float64 // [hour][copyIdx]
}

// ID implements Result.
func (r *Fig9Result) ID() string { return "fig9" }

// Summary implements Result.
func (r *Fig9Result) Summary() string {
	h0 := r.Errors[0]
	hl := r.Errors[len(r.Errors)-1]
	return fmt.Sprintf("both knobs reduce error: %gh/%d copies %.1f%% → %gh/%d copies %.2f%%",
		r.Hours[0], r.Copies[0], 100*h0[0],
		r.Hours[len(r.Hours)-1], r.Copies[len(r.Copies)-1], 100*hl[len(hl)-1])
}

// Render implements Result.
func (r *Fig9Result) Render() string {
	header := []string{"copies"}
	for _, h := range r.Hours {
		header = append(header, fmt.Sprintf("%g hours", h))
	}
	rows := make([][]string, len(r.Copies))
	for ci, n := range r.Copies {
		row := []string{fmt.Sprintf("%d", n)}
		for hi := range r.Hours {
			row = append(row, textplot.Percent(r.Errors[hi][ci]))
		}
		rows[ci] = row
	}
	series := make([]textplot.Series, len(r.Hours))
	for hi, h := range r.Hours {
		xs := make([]float64, len(r.Copies))
		for i, n := range r.Copies {
			xs[i] = float64(n)
		}
		series[hi] = textplot.Series{Name: fmt.Sprintf("%gh", h), X: xs, Y: r.Errors[hi]}
	}
	return "Fig. 9 — error vs copies and stress time\n\n" +
		textplot.Table(header, rows) + "\n" +
		textplot.Chart("error vs copies", "copies", "error", series, 60, 12)
}

func runFig9(cfg Config) (Result, error) {
	res := &Fig9Result{
		Copies: []int{1, 3, 5, 7, 9, 11, 13, 15, 17, 19},
		Hours:  []float64{2, 4, 6},
	}
	for _, h := range res.Hours {
		// One device per stress time, 19 copies of a unit message.
		serial := fmt.Sprintf("fig9-%gh", h)
		dev, err := cfg.newDevice("MSP432P401", serial)
		if err != nil {
			return nil, err
		}
		unitBytes := dev.SRAM.Bytes() / 19
		unitBytes -= unitBytes % 4
		unit := make([]byte, unitBytes)
		rng.NewSource(9).Bytes(unit)

		recovered, err := cfg.encodeCopies(dev, serial, unit, 19, h)
		if err != nil {
			return nil, err
		}
		errs := make([]float64, len(res.Copies))
		for ci, n := range res.Copies {
			voted, err := ecc.Repetition{N: n}.Decode(recovered[:n*unitBytes], unitBytes)
			if err != nil {
				return nil, err
			}
			errs[ci] = stats.BitErrorRate(voted, unit)
		}
		res.Errors = append(res.Errors, errs)
	}
	return res, nil
}

// --- Fig. 10 ------------------------------------------------------------------

// Fig10Result compares measured repetition decoding against Eq. 1 theory
// and against repetition+Hamming(7,4).
type Fig10Result struct {
	Copies          []int
	Theory          []float64 // Eq. 1 with the measured single-copy error
	Repetition      []float64
	RepetitionHam74 []float64
	SingleCopyMean  float64
	SingleCopyStd   float64
	ZeroErrorAt     int // first copy count where repetition measured 0
}

// ID implements Result.
func (r *Fig10Result) ID() string { return "fig10" }

// Summary implements Result.
func (r *Fig10Result) Summary() string {
	return fmt.Sprintf("single-copy error %.2f%%±%.2f%% (paper 6.5%%±0.68%%); repetition hits 0 at %d copies (paper 13); +Hamming(7,4) reaches it sooner",
		100*r.SingleCopyMean, 100*r.SingleCopyStd, r.ZeroErrorAt)
}

// Render implements Result.
func (r *Fig10Result) Render() string {
	rows := make([][]string, len(r.Copies))
	for i, n := range r.Copies {
		rows[i] = []string{
			fmt.Sprintf("%d", n),
			textplot.Percent(r.Theory[i]),
			textplot.Percent(r.Repetition[i]),
			textplot.Percent(r.RepetitionHam74[i]),
		}
	}
	xs := make([]float64, len(r.Copies))
	for i, n := range r.Copies {
		xs[i] = float64(n)
	}
	return "Fig. 10 — repetition and Hamming(7,4) error performance\n\n" +
		textplot.Table([]string{"copies", "theoretical (Eq. 1)", "repetition", "repetition+(7,4)"}, rows) +
		"\n" + textplot.Chart("error vs copies", "copies", "error", []textplot.Series{
		{Name: "theory", X: xs, Y: r.Theory},
		{Name: "repetition", X: xs, Y: r.Repetition},
		{Name: "rep+ham", X: xs, Y: r.RepetitionHam74},
	}, 60, 12)
}

func runFig10(cfg Config) (Result, error) {
	res := &Fig10Result{Copies: []int{1, 3, 5, 7, 9, 11, 13, 15, 17}}
	const maxCopies = 17

	dev, err := cfg.newDevice("MSP432P401", "fig10")
	if err != nil {
		return nil, err
	}
	unitBytes := dev.SRAM.Bytes() / maxCopies
	unitBytes -= unitBytes % 4

	// Plain message unit and its Hamming(7,4)-expanded counterpart share
	// the channel; encode both interleaved on two devices for fairness.
	msg := make([]byte, unitBytes)
	rng.NewSource(10).Bytes(msg)
	recovered, err := cfg.encodeCopies(dev, "fig10", msg, maxCopies, 10)
	if err != nil {
		return nil, err
	}

	ham := ecc.Hamming74{}
	hamMsgBytes := unitBytes * 4 / 7
	hamMsgBytes -= hamMsgBytes % 4
	hamMsg := make([]byte, hamMsgBytes)
	rng.NewSource(11).Bytes(hamMsg)
	hamUnit, err := ham.Encode(hamMsg)
	if err != nil {
		return nil, err
	}
	if pad := (4 - len(hamUnit)%4) % 4; pad > 0 {
		hamUnit = append(hamUnit, make([]byte, pad)...)
	}
	devHam, err := cfg.newDevice("MSP432P401", "fig10-ham")
	if err != nil {
		return nil, err
	}
	recoveredHam, err := cfg.encodeCopies(devHam, "fig10-ham", hamUnit, maxCopies, 10)
	if err != nil {
		return nil, err
	}

	// Per-copy error statistics (the paper's 6.5% ± 0.68%).
	var mean, m2 float64
	for c := 0; c < maxCopies; c++ {
		e := stats.BitErrorRate(recovered[c*unitBytes:(c+1)*unitBytes], msg)
		delta := e - mean
		mean += delta / float64(c+1)
		m2 += delta * (e - mean)
	}
	res.SingleCopyMean = mean
	if maxCopies > 1 {
		res.SingleCopyStd = math.Sqrt(m2 / float64(maxCopies-1))
	}

	res.ZeroErrorAt = -1
	for _, n := range res.Copies {
		res.Theory = append(res.Theory, stats.RepetitionErrorRate(1-mean, n))

		voted, err := ecc.Repetition{N: n}.Decode(recovered[:n*unitBytes], unitBytes)
		if err != nil {
			return nil, err
		}
		repErr := stats.BitErrorRate(voted, msg)
		res.Repetition = append(res.Repetition, repErr)
		if repErr == 0 && res.ZeroErrorAt < 0 {
			res.ZeroErrorAt = n
		}

		votedHam, err := ecc.Repetition{N: n}.Decode(recoveredHam[:n*len(hamUnit)], len(hamUnit))
		if err != nil {
			return nil, err
		}
		dec, err := ham.Decode(votedHam[:ham.EncodedLen(hamMsgBytes)], hamMsgBytes)
		if err != nil {
			return nil, err
		}
		res.RepetitionHam74 = append(res.RepetitionHam74, stats.BitErrorRate(dec, hamMsg))
	}
	return res, nil
}

// --- Fig. 15 ------------------------------------------------------------------

// Fig15Point is one (capacity, error) point for one device class.
type Fig15Point struct {
	Copies      int
	WithHamming bool
	CapacityPct float64
	Error       float64
}

// Fig15Result is the per-device error–capacity frontier.
type Fig15Result struct {
	Devices      []string
	SingleErrors []float64
	Points       [][]Fig15Point
}

// ID implements Result.
func (r *Fig15Result) ID() string { return "fig15" }

// Summary implements Result.
func (r *Fig15Result) Summary() string {
	return fmt.Sprintf("frontiers computed for %d devices from measured single-copy errors %v",
		len(r.Devices), formatPcts(r.SingleErrors))
}

func formatPcts(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.1f%%", 100*x)
	}
	return strings.Join(parts, "/")
}

// Render implements Result.
func (r *Fig15Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Fig. 15 — error and capacity trade-off (repetition copies × Hamming(7,4), Eq. 1)\n")
	series := make([]textplot.Series, len(r.Devices))
	for di, name := range r.Devices {
		fmt.Fprintf(&sb, "\n%s (measured single-copy error %.2f%%):\n", name, 100*r.SingleErrors[di])
		rows := make([][]string, 0, len(r.Points[di]))
		var xs, ys []float64
		for _, p := range r.Points[di] {
			code := fmt.Sprintf("rep(%d)", p.Copies)
			if p.WithHamming {
				code += "+(7,4)"
			}
			rows = append(rows, []string{code,
				fmt.Sprintf("%.1f%%", p.CapacityPct), textplot.Percent(p.Error)})
			xs = append(xs, p.CapacityPct)
			ys = append(ys, p.Error)
		}
		sb.WriteString(textplot.Table([]string{"code", "capacity", "error"}, rows))
		series[di] = textplot.Series{Name: r.Devices[di], X: xs, Y: ys}
	}
	sb.WriteByte('\n')
	sb.WriteString(textplot.Chart("error vs capacity", "capacity [%]", "error", series, 60, 14))
	return sb.String()
}

func runFig15(cfg Config) (Result, error) {
	res := &Fig15Result{}
	for _, m := range device.Table4Models() {
		// Measure the single-copy error at the device's own operating point.
		dev, err := cfg.newDevice(m.Name, "fig15")
		if err != nil {
			return nil, err
		}
		payload := make([]byte, dev.SRAM.Bytes())
		rng.NewSource(15).Bytes(payload)
		if err := imprint(dev, payload, m.EncodingHours); err != nil {
			return nil, err
		}
		p, err := cfg.rawError(dev, payload)
		if err != nil {
			return nil, err
		}

		// Bernoulli-trial frontier (the paper "simulate[s] Bernoulli trials
		// for different payload copies and Hamming(7,4)").
		var pts []Fig15Point
		for _, n := range []int{1, 3, 5, 7, 9, 11} {
			e := stats.RepetitionErrorRate(1-p, n)
			pts = append(pts, Fig15Point{Copies: n, CapacityPct: 100.0 / float64(n), Error: e})
			pts = append(pts, Fig15Point{
				Copies: n, WithHamming: true,
				CapacityPct: 100.0 * 4 / 7 / float64(n),
				Error:       stats.HammingResidual74(e),
			})
		}
		res.Devices = append(res.Devices, m.Name)
		res.SingleErrors = append(res.SingleErrors, p)
		res.Points = append(res.Points, pts)
	}
	return res, nil
}
