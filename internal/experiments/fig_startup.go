package experiments

import (
	"bytes"
	"fmt"
	"strings"

	"invisiblebits/internal/analog"
	"invisiblebits/internal/ecc"
	"invisiblebits/internal/imaging"
	"invisiblebits/internal/spice"
	"invisiblebits/internal/stats"
	"invisiblebits/internal/stegocrypt"
	"invisiblebits/internal/textplot"
)

func init() {
	register("fig1", "Visual encoding pipeline on an MSP432", "Fig. 1", runFig1)
	register("fig2", "6T cell startup transient, pre/post NBTI aging", "Fig. 2b", runFig2)
	register("fig3", "Startup bias distributions and acceleration knobs", "Fig. 3", runFig3)
}

// --- Fig. 1 -------------------------------------------------------------------

// Fig1Result reproduces the five panels of Fig. 1: the original power-on
// state, the message image, the post-encoding power-on state (raw), the
// error-corrected received image, and the encrypted-encoding power-on
// state.
type Fig1Result struct {
	Original  *imaging.Bitmap // pre-encoding power-on state window
	Message   *imaging.Bitmap // the secret image
	Encoded   *imaging.Bitmap // power-on state after raw encoding
	Received  *imaging.Bitmap // after majority vote + inversion
	Encrypted *imaging.Bitmap // power-on state after encrypted encoding

	RawError      float64 // pixel error of Encoded vs inverted message
	ReceivedError float64 // pixel error after decoding
	EncBias       float64 // mean bias of the encrypted window
}

// ID implements Result.
func (r *Fig1Result) ID() string { return "fig1" }

// Summary implements Result.
func (r *Fig1Result) Summary() string {
	return fmt.Sprintf("image visible in power-on state (%.1f%% pixel error); encrypted window bias %.3f (≈0.5 ⇒ hidden)",
		100*r.ReceivedError, r.EncBias)
}

// Render implements Result.
func (r *Fig1Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Fig. 1 — Invisible Bits visual pipeline (32x32 window)\n\n")
	sb.WriteString("(a) original power-on state:\n" + r.Original.ASCII())
	sb.WriteString("\n(b) secret message:\n" + r.Message.ASCII())
	sb.WriteString("\n(c) power-on state after encoding (inverted message + noise):\n" + r.Encoded.ASCII())
	sb.WriteString("\n(d) received after majority vote + inversion:\n" + r.Received.ASCII())
	sb.WriteString("\n(e) power-on state after *encrypted* encoding:\n" + r.Encrypted.ASCII())
	fmt.Fprintf(&sb, "\nraw pixel error %.2f%%, received %.2f%%, encrypted-window bias %.3f\n",
		100*r.RawError, 100*r.ReceivedError, r.EncBias)
	return sb.String()
}

func runFig1(cfg Config) (Result, error) {
	glyph := imaging.Glyph()
	packed := glyph.Pack() // 128 bytes

	// Raw encoding.
	dev, err := cfg.newDevice("MSP432P401", "fig1-raw")
	if err != nil {
		return nil, err
	}
	pre, err := dev.PowerOn(25)
	if err != nil {
		return nil, err
	}
	original, err := imaging.Unpack(pre, 32, 32)
	if err != nil {
		return nil, err
	}
	if err := imprint(dev, tile(packed, dev.SRAM.Bytes()), dev.Model.EncodingHours); err != nil {
		return nil, err
	}
	single, err := dev.SRAM.PowerCycle(25)
	if err != nil {
		return nil, err
	}
	encoded, err := imaging.Unpack(single[:len(packed)], 32, 32)
	if err != nil {
		return nil, err
	}
	got, err := cfg.recovered(dev)
	if err != nil {
		return nil, err
	}
	// Fig. 1d applies error correction: the tiled payload is a repetition
	// code, so vote across the copies that fit in SRAM.
	copies := dev.SRAM.Bytes() / len(packed)
	if copies%2 == 0 {
		copies--
	}
	voted, err := ecc.Repetition{N: copies}.Decode(got[:copies*len(packed)], len(packed))
	if err != nil {
		return nil, err
	}
	received, err := imaging.Unpack(voted, 32, 32)
	if err != nil {
		return nil, err
	}

	// Encrypted encoding on a second device.
	dev2, err := cfg.newDevice("MSP432P401", "fig1-enc")
	if err != nil {
		return nil, err
	}
	key := stegocrypt.KeyFromPassphrase("fig1")
	ct, err := stegocrypt.StreamXOR(key, dev2.DeviceID(), tile(packed, dev2.SRAM.Bytes()))
	if err != nil {
		return nil, err
	}
	if err := imprint(dev2, ct, dev2.Model.EncodingHours); err != nil {
		return nil, err
	}
	encSnap, err := dev2.SRAM.PowerCycle(25)
	if err != nil {
		return nil, err
	}
	encrypted, err := imaging.Unpack(encSnap[:len(packed)], 32, 32)
	if err != nil {
		return nil, err
	}

	invMsg, err := imaging.Unpack(invert(packed), 32, 32)
	if err != nil {
		return nil, err
	}
	rawErr, err := imaging.ErrorRate(encoded, invMsg)
	if err != nil {
		return nil, err
	}
	recErr, err := imaging.ErrorRate(received, glyph)
	if err != nil {
		return nil, err
	}
	return &Fig1Result{
		Original: original, Message: glyph, Encoded: encoded,
		Received: received, Encrypted: encrypted,
		RawError: rawErr, ReceivedError: recErr,
		EncBias: stats.MeanBias(encSnap),
	}, nil
}

// --- Fig. 2 -------------------------------------------------------------------

// Fig2Result holds the pre- and post-aging power-on transients.
type Fig2Result struct {
	Pre, Post       spice.Result
	PreState        bool
	PostState       bool
	AppliedShiftV   float64
	SettlePreNanos  float64
	SettlePostNanos float64
}

// ID implements Result.
func (r *Fig2Result) ID() string { return "fig2" }

// Summary implements Result.
func (r *Fig2Result) Summary() string {
	return fmt.Sprintf("power-on race flips %v→%v after %.0f mV NBTI shift on M4 (settle ≈%.1f ns)",
		b2i(r.PreState), b2i(r.PostState), 1000*r.AppliedShiftV, r.SettlePostNanos)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Render implements Result.
func (r *Fig2Result) Render() string {
	toSeries := func(res spice.Result, name string) []textplot.Series {
		n := len(res.Waveform.TimeS)
		x := make([]float64, n)
		for i, t := range res.Waveform.TimeS {
			x[i] = t * 1e9
		}
		return []textplot.Series{
			{Name: name + " VA", X: x, Y: res.Waveform.VAV},
			{Name: name + " VB", X: x, Y: res.Waveform.VBV},
			{Name: "Vdd", X: x, Y: res.Waveform.VddV},
		}
	}
	var sb strings.Builder
	sb.WriteString("Fig. 2b — startup waveforms (node A and B vs supply ramp)\n\n")
	sb.WriteString(textplot.Chart("pre-aging (cell biased to 1: A→Vdd, B→0)", "t [ns]", "V",
		toSeries(r.Pre, "pre"), 64, 12))
	sb.WriteByte('\n')
	sb.WriteString(textplot.Chart(
		fmt.Sprintf("post-aging (+%.0f mV on |vth4|: race winner flips)", 1000*r.AppliedShiftV),
		"t [ns]", "V", toSeries(r.Post, "post"), 64, 12))
	return sb.String()
}

func runFig2(Config) (Result, error) {
	cell := spice.NewCell()
	cell.M4.VthV -= 0.015 // manufacturing bias toward 1 (|vth4| < |vth2|)
	pre, err := cell.PowerOn(spice.DefaultRamp())
	if err != nil {
		return nil, err
	}
	const shift = 0.05
	cell.AgePMOS(true, shift) // cell held 1 → NBTI on M4
	post, err := cell.PowerOn(spice.DefaultRamp())
	if err != nil {
		return nil, err
	}
	return &Fig2Result{
		Pre: pre, Post: post,
		PreState: pre.State, PostState: post.State,
		AppliedShiftV:   shift,
		SettlePreNanos:  pre.SettleS * 1e9,
		SettlePostNanos: post.SettleS * 1e9,
	}, nil
}

// --- Fig. 3 -------------------------------------------------------------------

// Fig3Result carries the three bias histograms (a–c) and the
// acceleration-knob curves (d).
type Fig3Result struct {
	BinCenters []float64
	HistUnaged []float64 // (a) fraction of cells per bias bin
	HistAfter0 []float64 // (b) after all-0 stress
	HistAfter1 []float64 // (c) after all-1 stress

	// (d): percentage of 1s vs stress time per condition.
	Conditions []analog.Conditions
	StressHrs  []float64
	PctOnes    [][]float64 // [condition][time]
}

// ID implements Result.
func (r *Fig3Result) ID() string { return "fig3" }

// Summary implements Result.
func (r *Fig3Result) Summary() string {
	last := len(r.StressHrs) - 1
	return fmt.Sprintf("data-directed aging confirmed; at 4h: %%1s = %.0f/%.0f/%.0f/%.0f for %v/%v/%v/%v (voltage dominates)",
		r.PctOnes[0][last], r.PctOnes[1][last], r.PctOnes[2][last], r.PctOnes[3][last],
		r.Conditions[0], r.Conditions[1], r.Conditions[2], r.Conditions[3])
}

// Render implements Result.
func (r *Fig3Result) Render() string {
	var sb strings.Builder
	labels := make([]string, len(r.BinCenters))
	for i, c := range r.BinCenters {
		labels[i] = fmt.Sprintf("%.2f", c)
	}
	sb.WriteString("Fig. 3 — power-on state bias and accelerated aging\n\n")
	sb.WriteString(textplot.Histogram("(a) unaged bias distribution", labels, r.HistUnaged, 40))
	sb.WriteString(textplot.Histogram("(b) after stressing with all-0s (biases toward 1)", labels, r.HistAfter0, 40))
	sb.WriteString(textplot.Histogram("(c) after stressing with all-1s (biases toward 0)", labels, r.HistAfter1, 40))
	series := make([]textplot.Series, len(r.Conditions))
	for i, c := range r.Conditions {
		series[i] = textplot.Series{Name: c.String(), X: r.StressHrs, Y: r.PctOnes[i]}
	}
	sb.WriteString("\n")
	sb.WriteString(textplot.Chart("(d) % of 1s vs stress time (all-1s written)", "stress [h]", "% 1s", series, 60, 14))
	return sb.String()
}

func runFig3(cfg Config) (Result, error) {
	const bins = 10
	histOf := func(serial string, fill byte, stressHours float64) ([]float64, []float64, error) {
		dev, err := cfg.newDevice("MSP432P401", serial)
		if err != nil {
			return nil, nil, err
		}
		if stressHours > 0 {
			err = imprint(dev, bytes.Repeat([]byte{fill}, dev.SRAM.Bytes()), stressHours)
		} else {
			_, err = dev.PowerOn(25)
		}
		if err != nil {
			return nil, nil, err
		}
		dev.PowerOff(true)
		bm, err := dev.SRAM.BiasMap(20, 25)
		if err != nil {
			return nil, nil, err
		}
		h := stats.NewHistogram(bm, 0, 1, bins)
		return h.Density(), h.BinCenters(), nil
	}

	unaged, centers, err := histOf("fig3-a", 0, 0)
	if err != nil {
		return nil, err
	}
	after0, _, err := histOf("fig3-b", 0x00, 4)
	if err != nil {
		return nil, err
	}
	after1, _, err := histOf("fig3-c", 0xFF, 4)
	if err != nil {
		return nil, err
	}

	conds := []analog.Conditions{
		{VoltageV: 1.2, TempC: 25},
		{VoltageV: 1.2, TempC: 85},
		{VoltageV: 3.3, TempC: 25},
		{VoltageV: 3.3, TempC: 85},
	}
	times := []float64{0, 0.5, 1, 1.5, 2, 2.5, 3, 3.5, 4}
	pct := make([][]float64, len(conds))
	for ci, cond := range conds {
		pct[ci] = make([]float64, len(times))
		dev, err := cfg.newDevice("MSP432P401", fmt.Sprintf("fig3-d%d", ci))
		if err != nil {
			return nil, err
		}
		if _, err := dev.PowerOn(25); err != nil {
			return nil, err
		}
		if err := dev.SRAM.Fill(0xFF); err != nil {
			return nil, err
		}
		prev := 0.0
		for ti, tHours := range times {
			if dt := tHours - prev; dt > 0 {
				// Refill before each increment: the paper holds all-1s for
				// the whole soak.
				if err := dev.SRAM.Fill(0xFF); err != nil {
					return nil, err
				}
				if err := dev.Stress(cond, dt); err != nil {
					return nil, err
				}
				prev = tHours
			}
			snap, err := dev.SRAM.PowerCycle(25)
			if err != nil {
				return nil, err
			}
			pct[ci][ti] = 100 * stats.MeanBias(snap)
			// Restore held pattern for the next increment.
			if err := dev.SRAM.Fill(0xFF); err != nil {
				return nil, err
			}
		}
	}

	return &Fig3Result{
		BinCenters: centers,
		HistUnaged: unaged, HistAfter0: after0, HistAfter1: after1,
		Conditions: conds, StressHrs: times, PctOnes: pct,
	}, nil
}
