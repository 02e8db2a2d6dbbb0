package experiments

import (
	"fmt"

	"invisiblebits/internal/core"
	"invisiblebits/internal/ecc"
	"invisiblebits/internal/rig"
	"invisiblebits/internal/rng"
	"invisiblebits/internal/stats"
	"invisiblebits/internal/stegocrypt"
	"invisiblebits/internal/textplot"
)

func init() {
	register("abl-captures", "Ablation: majority-vote capture count", "§4.3", runAblCaptures)
	register("abl-eccorder", "Ablation: repetition∘Hamming vs Hamming∘repetition", "footnote 7", runAblECCOrder)
	register("abl-cipher", "Ablation: AES-CTR vs AES-CBC error propagation", "§4.1", runAblCipher)
	register("abl-soft", "Ablation: hard majority vs soft-decision decoding", "extension", runAblSoft)
}

// --- capture count --------------------------------------------------------------

// AblCapturesResult sweeps the §4.3 capture count.
type AblCapturesResult struct {
	Captures []int
	Errors   []float64
}

// ID implements Result.
func (r *AblCapturesResult) ID() string { return "abl-captures" }

// Summary implements Result.
func (r *AblCapturesResult) Summary() string {
	return fmt.Sprintf("channel error %.2f%%→%.2f%% from %d to %d captures — §4.3's 'five is sufficient' holds",
		100*r.Errors[0], 100*r.Errors[len(r.Errors)-1], r.Captures[0], r.Captures[len(r.Captures)-1])
}

// Render implements Result.
func (r *AblCapturesResult) Render() string {
	rows := make([][]string, len(r.Captures))
	for i := range r.Captures {
		rows[i] = []string{fmt.Sprintf("%d", r.Captures[i]), textplot.Percent(r.Errors[i])}
	}
	return "Ablation — majority-vote capture count (§4.3)\n\n" +
		textplot.Table([]string{"captures", "channel error"}, rows)
}

func runAblCaptures(cfg Config) (Result, error) {
	res := &AblCapturesResult{Captures: []int{1, 3, 5, 7, 9}}
	// One encode; re-sample with different capture counts.
	dev, err := cfg.newDevice("MSP432P401", "abl-cap")
	if err != nil {
		return nil, err
	}
	payload := make([]byte, dev.SRAM.Bytes())
	rng.NewSource(0xAB1).Bytes(payload)
	if err := imprint(dev, payload, dev.Model.EncodingHours); err != nil {
		return nil, err
	}
	for _, n := range res.Captures {
		c := cfg
		c.Captures = n
		e, err := c.rawError(dev, payload)
		if err != nil {
			return nil, err
		}
		res.Errors = append(res.Errors, e)
		dev.PowerOff(true)
	}
	return res, nil
}

// --- ECC order ------------------------------------------------------------------

// AblECCOrderResult compares codec compositions on a synthetic channel.
type AblECCOrderResult struct {
	HamThenRep float64
	RepThenHam float64
}

// ID implements Result.
func (r *AblECCOrderResult) ID() string { return "abl-eccorder" }

// Summary implements Result.
func (r *AblECCOrderResult) Summary() string {
	return fmt.Sprintf("residuals %.4g%% vs %.4g%% — order immaterial at system level (footnote 7)",
		100*r.HamThenRep, 100*r.RepThenHam)
}

// Render implements Result.
func (r *AblECCOrderResult) Render() string {
	return "Ablation — ECC composition order on a 6.5% channel (footnote 7)\n\n" +
		textplot.Table([]string{"composition", "residual error"}, [][]string{
			{"hamming(7,4) outer, repetition(5) inner", textplot.Percent(r.HamThenRep)},
			{"repetition(5) outer, hamming(7,4) inner", textplot.Percent(r.RepThenHam)},
		})
}

func runAblECCOrder(Config) (Result, error) {
	measure := func(codec ecc.Codec, seed uint64) (float64, error) {
		msg := make([]byte, 4<<10)
		rng.NewSource(7).Bytes(msg)
		enc, err := codec.Encode(msg)
		if err != nil {
			return 0, err
		}
		src := rng.NewSource(seed)
		for i := 0; i < len(enc)*8; i++ {
			if src.Float64() < 0.065 {
				enc[i/8] ^= 1 << (i % 8)
			}
		}
		dec, err := codec.Decode(enc, len(msg))
		if err != nil {
			return 0, err
		}
		return stats.BitErrorRate(dec, msg), nil
	}
	rep, err := ecc.NewRepetition(5)
	if err != nil {
		return nil, err
	}
	a, err := measure(ecc.Composite{Outer: ecc.Hamming74{}, Inner: rep}, 8)
	if err != nil {
		return nil, err
	}
	b, err := measure(ecc.Composite{Outer: rep, Inner: ecc.Hamming74{}}, 9)
	if err != nil {
		return nil, err
	}
	return &AblECCOrderResult{HamThenRep: a, RepThenHam: b}, nil
}

// --- cipher choice ---------------------------------------------------------------

// AblCipherResult is the §4.1 CTR-vs-CBC comparison.
type AblCipherResult struct {
	ChannelBER float64
	CTRError   float64
	CBCError   float64
}

// ID implements Result.
func (r *AblCipherResult) ID() string { return "abl-cipher" }

// Summary implements Result.
func (r *AblCipherResult) Summary() string {
	return fmt.Sprintf("on a %.1f%% channel: CTR %.2f%% (neutral) vs CBC %.0f%% (%.0fx blow-up) — §4.1's stream-cipher mandate",
		100*r.ChannelBER, 100*r.CTRError, 100*r.CBCError, r.CBCError/r.ChannelBER)
}

// Render implements Result.
func (r *AblCipherResult) Render() string {
	return "Ablation — cipher error propagation (§4.1)\n\n" +
		textplot.Table([]string{"cipher", "plaintext error"}, [][]string{
			{"AES-CTR (stream)", textplot.Percent(r.CTRError)},
			{"AES-CBC (block-chained)", textplot.Percent(r.CBCError)},
		}) + fmt.Sprintf("\nchannel BER: %s\n", textplot.Percent(r.ChannelBER))
}

func runAblCipher(Config) (Result, error) {
	const channelBER = 0.008
	key := stegocrypt.KeyFromPassphrase("abl")
	msg := make([]byte, 32<<10)
	rng.NewSource(4).Bytes(msg)

	corrupt := func(ct []byte) []byte {
		src := rng.NewSource(5)
		out := make([]byte, len(ct))
		copy(out, ct)
		for i := 0; i < len(out)*8; i++ {
			if src.Float64() < channelBER {
				out[i/8] ^= 1 << (i % 8)
			}
		}
		return out
	}

	ctCTR, err := stegocrypt.StreamXOR(key, "dev", msg)
	if err != nil {
		return nil, err
	}
	ptCTR, err := stegocrypt.StreamXOR(key, "dev", corrupt(ctCTR))
	if err != nil {
		return nil, err
	}
	ctCBC, err := stegocrypt.EncryptCBC(key, "dev", msg)
	if err != nil {
		return nil, err
	}
	ptCBC, err := stegocrypt.DecryptCBC(key, "dev", corrupt(ctCBC), len(msg))
	if err != nil {
		return nil, err
	}
	return &AblCipherResult{
		ChannelBER: channelBER,
		CTRError:   stats.BitErrorRate(ptCTR, msg),
		CBCError:   stats.BitErrorRate(ptCBC, msg),
	}, nil
}

// --- soft decoding ---------------------------------------------------------------

// AblSoftResult compares hard and soft decoding on a weak encoding.
type AblSoftResult struct {
	HardError float64
	SoftError float64
}

// ID implements Result.
func (r *AblSoftResult) ID() string { return "abl-soft" }

// Summary implements Result.
func (r *AblSoftResult) Summary() string {
	return fmt.Sprintf("weak 2h/3-copy encoding: hard %.2f%% vs soft %.2f%% — small gain (error cells here are biased, not noisy)",
		100*r.HardError, 100*r.SoftError)
}

// Render implements Result.
func (r *AblSoftResult) Render() string {
	return "Ablation — hard majority vs soft-decision decoding (extension)\n\n" +
		textplot.Table([]string{"decoder", "residual error"}, [][]string{
			{"hard per-copy majority", textplot.Percent(r.HardError)},
			{"soft confidence combining", textplot.Percent(r.SoftError)},
		})
}

func runAblSoft(cfg Config) (Result, error) {
	dev, err := cfg.newDevice("MSP432P401", "abl-soft")
	if err != nil {
		return nil, err
	}
	r := rig.New(dev)
	rep, err := ecc.NewRepetition(3)
	if err != nil {
		return nil, err
	}
	opts := core.Options{Codec: rep, StressHours: 2}
	msg := make([]byte, 1<<10)
	rng.NewSource(88).Bytes(msg)
	rec, err := core.Encode(r, msg, opts)
	if err != nil {
		return nil, err
	}
	hard, err := core.Decode(r, rec, opts)
	if err != nil {
		return nil, err
	}
	softOpts := opts
	softOpts.Soft = true
	soft, err := core.Decode(r, rec, softOpts)
	if err != nil {
		return nil, err
	}
	return &AblSoftResult{
		HardError: stats.BitErrorRate(hard, msg),
		SoftError: stats.BitErrorRate(soft, msg),
	}, nil
}
