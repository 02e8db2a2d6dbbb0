package experiments

import (
	"fmt"
	"strings"

	"invisiblebits/internal/imaging"
	"invisiblebits/internal/stats"
	"invisiblebits/internal/stegocrypt"
	"invisiblebits/internal/textplot"
)

func init() {
	register("fig11", "Hamming-weight density: none / plain / encrypted", "Fig. 11", runFig11)
	register("fig12", "Per-symbol Shannon entropy of power-on states", "Fig. 12", runFig12)
	register("tab5", "Moran's I and mean bias across 11 chips", "Table 5", runTable5)
	register("sec6", "Welch's t-test: encoded-encrypted vs clean", "§6", runWelch)
	register("fig14", "Multi-snapshot adversary across recovery times", "§7.1 / Fig. 14", runFig14)
}

// stegoPayloadKind selects what (if anything) is hidden in a device.
type stegoPayloadKind int

const (
	kindClean stegoPayloadKind = iota
	kindPlain
	kindEncrypted
)

// plaintextUnit builds the structured secret the steganalysis
// experiments hide: an ASCII message padded to exactly one physical SRAM
// row, so the tiled payload forms vertical stripes (like the image of
// Fig. 1) and carries ASCII's inherent bit bias. This is what makes
// unencrypted encodings detectable (Table 5: Moran's I 0.4–0.5, bias
// 0.535).
func plaintextUnit(rowBytes int) []byte {
	const msg = "MEET AT THE SAFE HOUSE AT MIDNIGHT - BRING THE DOCUMENTS. "
	return tile([]byte(msg), rowBytes)
}

// prepareDevice returns a powered-off device in the given condition and
// its final single-capture power-on snapshot. Plain-text devices hide a
// structured ASCII payload (see plaintextUnit); encrypted devices hide
// the same payload behind AES-CTR.
func (c Config) prepareDevice(serial string, kind stegoPayloadKind) ([]byte, int, int, error) {
	dev, err := c.newDevice("MSP432P401", serial)
	if err != nil {
		return nil, 0, 0, err
	}
	if kind == kindClean {
		_, err = dev.PowerOn(25)
	} else {
		payload := tile(plaintextUnit(dev.SRAM.Cols()/8), dev.SRAM.Bytes())
		if kind == kindEncrypted {
			key := stegocrypt.KeyFromPassphrase("tab5")
			payload, err = stegocrypt.StreamXOR(key, dev.DeviceID(), payload)
			if err != nil {
				return nil, 0, 0, err
			}
		}
		err = imprint(dev, payload, dev.Model.EncodingHours)
	}
	if err != nil {
		return nil, 0, 0, err
	}
	snap, err := dev.SRAM.PowerCycle(25)
	if err != nil {
		return nil, 0, 0, err
	}
	return snap, dev.SRAM.Rows(), dev.SRAM.Cols(), nil
}

// --- Fig. 11 ------------------------------------------------------------------

// Fig11Result holds 128-bit-block Hamming-weight densities.
type Fig11Result struct {
	BlockBits int
	Centers   []float64
	None      []float64
	Plain     []float64
	Encrypted []float64

	MeanNone, MeanPlain, MeanEncrypted float64
}

// ID implements Result.
func (r *Fig11Result) ID() string { return "fig11" }

// Summary implements Result.
func (r *Fig11Result) Summary() string {
	return fmt.Sprintf("mean block weight: clean %.1f, plain %.1f (shifted ⇒ detectable), encrypted %.1f (matches clean)",
		r.MeanNone, r.MeanPlain, r.MeanEncrypted)
}

// Render implements Result.
func (r *Fig11Result) Render() string {
	return "Fig. 11 — Hamming-weight density of 128-bit blocks\n\n" +
		textplot.Chart("density", "Hamming weight", "density", []textplot.Series{
			{Name: "no hidden message", X: r.Centers, Y: r.None},
			{Name: "plain-text", X: r.Centers, Y: r.Plain},
			{Name: "encrypted", X: r.Centers, Y: r.Encrypted},
		}, 64, 14) +
		fmt.Sprintf("\nmeans: clean %.2f, plain %.2f, encrypted %.2f (of %d)\n",
			r.MeanNone, r.MeanPlain, r.MeanEncrypted, r.BlockBits)
}

func blockDensity(snap []byte, blockBytes, bins int) ([]float64, []float64, float64) {
	ws := stats.BlockHammingWeights(snap, blockBytes)
	f := stats.IntsToFloats(ws)
	h := stats.NewHistogram(f, 0, float64(blockBytes*8), bins)
	return h.BinCenters(), h.Density(), stats.Summarize(f).Mean
}

func runFig11(cfg Config) (Result, error) {
	const blockBytes = 16 // 128-bit blocks
	const bins = 32
	res := &Fig11Result{BlockBits: blockBytes * 8}
	for _, tc := range []struct {
		kind stegoPayloadKind
		dst  *[]float64
		mean *float64
	}{
		{kindClean, &res.None, &res.MeanNone},
		{kindPlain, &res.Plain, &res.MeanPlain},
		{kindEncrypted, &res.Encrypted, &res.MeanEncrypted},
	} {
		snap, _, _, err := cfg.prepareDevice(fmt.Sprintf("fig11-%d", tc.kind), tc.kind)
		if err != nil {
			return nil, err
		}
		centers, dens, mean := blockDensity(snap, blockBytes, bins)
		res.Centers = centers
		*tc.dst = dens
		*tc.mean = mean
	}
	return res, nil
}

// --- Fig. 12 ------------------------------------------------------------------

// Fig12Result carries per-symbol entropy contributions, sorted
// descending, for the three device conditions.
type Fig12Result struct {
	None      []float64
	Plain     []float64
	Encrypted []float64

	NormNone, NormPlain, NormEncrypted float64 // paper: 0.0312 / 0.0195 / 0.0312
}

// ID implements Result.
func (r *Fig12Result) ID() string { return "fig12" }

// Summary implements Result.
func (r *Fig12Result) Summary() string {
	return fmt.Sprintf("normalized entropy: clean %.4f, plain %.4f, encrypted %.4f (paper: 0.0312 / 0.0195 / 0.0312)",
		r.NormNone, r.NormPlain, r.NormEncrypted)
}

// Render implements Result.
func (r *Fig12Result) Render() string {
	xs := make([]float64, 256)
	for i := range xs {
		xs[i] = float64(i)
	}
	return "Fig. 12 — Shannon entropy of power-on state byte symbols (sorted)\n\n" +
		textplot.Chart("per-symbol entropy contribution", "symbol rank", "-P·log2(P)",
			[]textplot.Series{
				{Name: "no hidden message", X: xs, Y: r.None},
				{Name: "plain-text", X: xs, Y: r.Plain},
				{Name: "encrypted", X: xs, Y: r.Encrypted},
			}, 64, 14) +
		fmt.Sprintf("\nnormalized entropies: clean %.4f, plain %.4f, encrypted %.4f\n",
			r.NormNone, r.NormPlain, r.NormEncrypted)
}

func runFig12(cfg Config) (Result, error) {
	res := &Fig12Result{}
	for _, tc := range []struct {
		kind stegoPayloadKind
		dst  *[]float64
		norm *float64
	}{
		{kindClean, &res.None, &res.NormNone},
		{kindPlain, &res.Plain, &res.NormPlain},
		{kindEncrypted, &res.Encrypted, &res.NormEncrypted},
	} {
		snap, _, _, err := cfg.prepareDevice(fmt.Sprintf("fig12-%d", tc.kind), tc.kind)
		if err != nil {
			return nil, err
		}
		per := stats.PerSymbolEntropy(snap)
		sorted := append([]float64(nil), per[:]...)
		sortDescending(sorted)
		*tc.dst = sorted
		*tc.norm = stats.NormalizedByteEntropy(snap)
	}
	return res, nil
}

func sortDescending(v []float64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] > v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

// --- Table 5 ------------------------------------------------------------------

// Table5Row is one chip's steganalysis measurements.
type Table5Row struct {
	Condition string
	MoranI    float64
	MeanBias  float64
}

// Table5Result reproduces Table 5's 11 chips.
type Table5Result struct {
	Rows []Table5Row
}

// ID implements Result.
func (r *Table5Result) ID() string { return "tab5" }

// Summary implements Result.
func (r *Table5Result) Summary() string {
	var plainI, encI float64
	var nEnc int
	for _, row := range r.Rows {
		if strings.Contains(row.Condition, "no encryption") && row.MoranI > plainI {
			plainI = row.MoranI
		}
		if strings.Contains(row.Condition, "encrypted") {
			encI += row.MoranI
			nEnc++
		}
	}
	return fmt.Sprintf("plain-text encodings reach Moran's I %.2f (paper 0.4–0.5); encrypted average %.3f — indistinguishable from clean",
		plainI, encI/float64(nEnc))
}

// Render implements Result.
func (r *Table5Result) Render() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{row.Condition, fmt.Sprintf("%.3f", row.MoranI), fmt.Sprintf("%.3f", row.MeanBias)}
	}
	return "Table 5 — spatial autocorrelation and mean power-on bias (MSP432 fleet)\n\n" +
		textplot.Table([]string{"condition", "Moran's I", "mean power-on bias"}, rows)
}

func runTable5(cfg Config) (Result, error) {
	res := &Table5Result{}
	add := func(serial, label string, kind stegoPayloadKind) error {
		snap, rows, cols, err := cfg.prepareDevice(serial, kind)
		if err != nil {
			return err
		}
		m, err := moranOfSnapshot(snap, rows, cols)
		if err != nil {
			return err
		}
		res.Rows = append(res.Rows, Table5Row{
			Condition: label, MoranI: m.I, MeanBias: stats.MeanBias(snap),
		})
		return nil
	}
	for i := 1; i <= 2; i++ {
		if err := add(fmt.Sprintf("tab5-plain%d", i), "Hidden message (no encryption)", kindPlain); err != nil {
			return nil, err
		}
	}
	for i := 1; i <= 5; i++ {
		if err := add(fmt.Sprintf("tab5-clean%d", i), "No hidden message", kindClean); err != nil {
			return nil, err
		}
	}
	for i := 1; i <= 4; i++ {
		if err := add(fmt.Sprintf("tab5-enc%d", i), "Hidden message (encrypted)", kindEncrypted); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// --- §6 Welch -----------------------------------------------------------------

// WelchResult is the §6 hypothesis test.
type WelchResult struct {
	Test          stats.WelchResult
	DevicesPerArm int
	RejectNull    bool
}

// ID implements Result.
func (r *WelchResult) ID() string { return "sec6" }

// Summary implements Result.
func (r *WelchResult) Summary() string {
	verdict := "cannot reject the null ⇒ adversary cannot distinguish (paper: p = 0.071)"
	if r.RejectNull {
		verdict = "REJECTED the null — deniability violated"
	}
	return fmt.Sprintf("one-tailed p = %.3f: %s", r.Test.POneTailed, verdict)
}

// Render implements Result.
func (r *WelchResult) Render() string {
	return "§6 — Welch's t-test on mean block Hamming weights\n\n" + textplot.Table(
		[]string{"quantity", "value"},
		[][]string{
			{"devices per class", fmt.Sprintf("%d", r.DevicesPerArm)},
			{"mean HW (encrypted-encoded)", fmt.Sprintf("%.3f", r.Test.MeanA)},
			{"mean HW (clean)", fmt.Sprintf("%.3f", r.Test.MeanB)},
			{"t statistic", fmt.Sprintf("%.3f", r.Test.T)},
			{"Welch df", fmt.Sprintf("%.1f", r.Test.DF)},
			{"p (one-tailed)", fmt.Sprintf("%.4f", r.Test.POneTailed)},
			{"null rejected at 0.05", fmt.Sprintf("%v", r.RejectNull)},
		})
}

func runWelch(cfg Config) (Result, error) {
	const perArm = 8
	const blockBytes = 16
	meanHW := func(serial string, kind stegoPayloadKind) (float64, error) {
		snap, _, _, err := cfg.prepareDevice(serial, kind)
		if err != nil {
			return 0, err
		}
		ws := stats.BlockHammingWeights(snap, blockBytes)
		return stats.Summarize(stats.IntsToFloats(ws)).Mean, nil
	}
	var enc, clean []float64
	for i := 0; i < perArm; i++ {
		e, err := meanHW(fmt.Sprintf("sec6-enc%d", i), kindEncrypted)
		if err != nil {
			return nil, err
		}
		c, err := meanHW(fmt.Sprintf("sec6-clean%d", i), kindClean)
		if err != nil {
			return nil, err
		}
		enc = append(enc, e)
		clean = append(clean, c)
	}
	test, err := stats.WelchTTest(enc, clean)
	if err != nil {
		return nil, err
	}
	return &WelchResult{Test: test, DevicesPerArm: perArm, RejectNull: test.POneTailed < 0.05}, nil
}

// --- Fig. 14 ------------------------------------------------------------------

// Fig14Snapshot is one capture in the multi-snapshot timeline.
type Fig14Snapshot struct {
	Label    string
	Centers  []float64
	Density  []float64
	MoranI   float64
	MeanHW   float64
	DiffBits float64 // fraction of bits changed vs the m1 snapshot
}

// Fig14Result is the §7.1 multi-snapshot adversary analysis.
type Fig14Result struct {
	Snapshots []Fig14Snapshot
	MaxMoranI float64
}

// ID implements Result.
func (r *Fig14Result) ID() string { return "fig14" }

// Summary implements Result.
func (r *Fig14Result) Summary() string {
	maxDrift := 0.0
	for _, s := range r.Snapshots[1:] {
		if s.DiffBits > maxDrift {
			maxDrift = s.DiffBits
		}
	}
	return fmt.Sprintf("max snapshot drift %.2f%% of bits, all Moran's I ≤ %.3f — temporal differences look like measurement noise",
		100*maxDrift, r.MaxMoranI)
}

// Render implements Result.
func (r *Fig14Result) Render() string {
	series := make([]textplot.Series, 0, len(r.Snapshots))
	rows := make([][]string, 0, len(r.Snapshots))
	for _, s := range r.Snapshots {
		series = append(series, textplot.Series{Name: s.Label, X: s.Centers, Y: s.Density})
		rows = append(rows, []string{s.Label, fmt.Sprintf("%.2f", s.MeanHW),
			fmt.Sprintf("%.4f", s.MoranI), fmt.Sprintf("%.3f%%", 100*s.DiffBits)})
	}
	return "Fig. 14 — Hamming-weight distributions across a covert communication\n\n" +
		textplot.Table([]string{"snapshot", "mean block HW", "Moran's I", "bits changed vs m1"}, rows) +
		"\n" + textplot.Chart("density", "Hamming weight", "density", series, 64, 14)
}

func runFig14(cfg Config) (Result, error) {
	dev, err := cfg.newDevice("MSP432P401", "fig14")
	if err != nil {
		return nil, err
	}
	if _, err := dev.PowerOn(25); err != nil {
		return nil, err
	}
	key := stegocrypt.KeyFromPassphrase("fig14")
	payload := tile(imaging.Glyph().Pack(), dev.SRAM.Bytes())
	payload, err = stegocrypt.StreamXOR(key, dev.DeviceID(), payload)
	if err != nil {
		return nil, err
	}
	if err := dev.SRAM.Write(payload); err != nil {
		return nil, err
	}

	res := &Fig14Result{}
	const blockBytes = 16
	var ref []byte // the m1 snapshot; drift is measured against it
	snapAndRecord := func(label string, isRef bool) error {
		snap, err := dev.SRAM.PowerCycle(25)
		if err != nil {
			return err
		}
		dev.PowerOff(true)
		if isRef {
			ref = snap
		}
		centers, dens, mean := blockDensity(snap, blockBytes, 32)
		m, err := moranOfSnapshot(snap, dev.SRAM.Rows(), dev.SRAM.Cols())
		if err != nil {
			return err
		}
		drift := 0.0
		if ref != nil {
			drift = stats.BitErrorRate(snap, ref)
		}
		res.Snapshots = append(res.Snapshots, Fig14Snapshot{
			Label: label, Centers: centers, Density: dens,
			MoranI: m.I, MeanHW: mean,
			DiffBits: drift,
		})
		if m.I > res.MaxMoranI {
			res.MaxMoranI = m.I
		}
		return nil
	}

	// Pre-encoding snapshot (the adversary's first visit). Drift for this
	// row is reported as 0 (no reference yet).
	if err := snapAndRecord("pre-encoding", false); err != nil {
		return nil, err
	}

	// Encode.
	if err := imprint(dev, payload, dev.Model.EncodingHours); err != nil {
		return nil, err
	}
	dev.PowerOff(true)

	// Back-to-back measurements m1/m2, then recovery checkpoints.
	if err := snapAndRecord("encoded (m1)", true); err != nil {
		return nil, err
	}
	if err := snapAndRecord("encoded (m2)", false); err != nil {
		return nil, err
	}
	for _, span := range []struct {
		label string
		hours float64
	}{
		{"one hour recovery", 1},
		{"one day recovery", 23},
		{"one week recovery", 6 * 24},
	} {
		if err := dev.Shelve(span.hours); err != nil {
			return nil, err
		}
		if err := snapAndRecord(span.label, false); err != nil {
			return nil, err
		}
	}
	return res, nil
}
