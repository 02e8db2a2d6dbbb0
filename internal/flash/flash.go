// Package flash models on-chip NOR Flash at the fidelity the paper's
// comparison baselines require (§5.3, §8): digital page-erase/program
// semantics plus the two analog side channels prior work hides data in —
// per-cell *program time* (Wang et al., "Hiding Information in Flash
// Memory") and per-cell *threshold-voltage level* (Zuck et al., "Stash in
// a Flash").
//
// Digital behaviour (Store): erase sets a page's bits to 1; programming
// can only clear bits (1→0); programming a 0 bit again is a no-op. A
// device's firmware image lives in a bare Store ("the instructions ...
// run from non-volatile memory", §4.2), loaded through the debugger
// interface; nothing reads a device's Flash below the digital level.
//
// Analog behaviour per bit cell (Array, the baselines' measurement
// model, which embeds a Store):
//
//   - ProgramTime: lognormal with a long tail. Program/erase cycling
//     (wear) increases it measurably — Wang et al. encode a hidden bit by
//     deliberately cycling a group of cells and decode by comparing the
//     group's mean program time against its neighbours.
//   - Vt: erased cells sit at a low threshold voltage, programmed cells
//     at a high one with spread. Zuck et al. over-charge selected
//     already-programmed cells to a second, higher level that reads
//     identically at the digital reference but is separable with a margin
//     read.
//
// Both side channels are destroyed by an erase (or re-program) of the
// page — the fragility Invisible Bits' Table 3 contrasts against.
package flash

import (
	"errors"
	"fmt"
	"math"

	"invisiblebits/internal/rng"
)

// Spec sizes and parameterizes a Flash array.
type Spec struct {
	PageBytes int
	Pages     int
	// ProgramTimeMeanUs and ProgramTimeSigma parameterize the lognormal
	// per-cell program time (sigma is the log-domain std dev).
	ProgramTimeMeanUs float64
	ProgramTimeSigma  float64
	// WearSlowdownUsPerCycle is the program-time increase per P/E cycle.
	WearSlowdownUsPerCycle float64
	// Threshold-voltage levels (volts).
	VtErased, VtProgrammed, VtOvercharged float64
	// VtSigma is the per-program spread of the reached level.
	VtSigma float64
	// MeasureNoiseUs and MeasureNoiseV are per-measurement noises.
	MeasureNoiseUs float64
	MeasureNoiseV  float64
	// Seed fixes the per-cell variation pattern (device identity).
	Seed uint64
}

// DefaultSpec returns a 256 KB (512-byte × 512-page) device-class array.
func DefaultSpec() Spec {
	return Spec{
		PageBytes:              512,
		Pages:                  512,
		ProgramTimeMeanUs:      60,
		ProgramTimeSigma:       0.10,
		WearSlowdownUsPerCycle: 0.02,
		VtErased:               1.0,
		VtProgrammed:           4.5,
		VtOvercharged:          5.6,
		VtSigma:                0.15,
		MeasureNoiseUs:         0.5,
		MeasureNoiseV:          0.05,
		Seed:                   1,
	}
}

// Validate checks the spec.
func (s Spec) Validate() error {
	switch {
	case s.PageBytes <= 0 || s.Pages <= 0:
		return fmt.Errorf("flash: non-positive geometry %dx%d", s.Pages, s.PageBytes)
	case s.ProgramTimeMeanUs <= 0 || s.ProgramTimeSigma < 0:
		return errors.New("flash: bad program-time parameters")
	case s.VtOvercharged <= s.VtProgrammed || s.VtProgrammed <= s.VtErased:
		return errors.New("flash: Vt levels must be ordered erased < programmed < overcharged")
	case s.WearSlowdownUsPerCycle < 0 || s.MeasureNoiseUs < 0 || s.MeasureNoiseV < 0:
		return errors.New("flash: negative noise/wear parameters")
	}
	return nil
}

// Array is a simulated NOR Flash with its analog side channels.
type Array struct {
	Store // digital contents and the NOR rules

	spec       Spec
	progTimeUs []float32 // per-bit intrinsic program time
	vt         []float32 // per-bit current threshold voltage

	noise *rng.Source
}

// New builds a fully erased array.
func New(spec Spec) (*Array, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	st, err := NewStore(spec.PageBytes, spec.Pages)
	if err != nil {
		return nil, err
	}
	bits := st.Bytes() * 8
	a := &Array{
		Store:      *st,
		spec:       spec,
		progTimeUs: make([]float32, bits),
		vt:         make([]float32, bits),
	}
	seedSrc := rng.NewSource(spec.Seed)
	vary := seedSrc.Split()
	a.noise = seedSrc.Split()
	for i := range a.progTimeUs {
		a.progTimeUs[i] = float32(spec.ProgramTimeMeanUs *
			math.Exp(vary.NormScaled(0, spec.ProgramTimeSigma)))
		a.vt[i] = float32(spec.VtErased)
	}
	return a, nil
}

// Spec returns the construction parameters.
func (a *Array) Spec() Spec { return a.spec }

// ErasePage resets a page to all-1s, clears its analog levels, and counts
// a P/E cycle (wearing the page's cells). Any hidden data riding on the
// page's analog state is destroyed.
func (a *Array) ErasePage(page int) error {
	if err := a.Store.ErasePage(page); err != nil {
		return err
	}
	bitBase := page * a.spec.PageBytes * 8
	for b := 0; b < a.spec.PageBytes*8; b++ {
		a.vt[bitBase+b] = float32(a.spec.VtErased)
	}
	a.wearPage(page, 1)
	return nil
}

// wearPage applies n P/E cycles of program-time slowdown to every cell of
// the page.
func (a *Array) wearPage(page, n int) {
	slow := float32(a.spec.WearSlowdownUsPerCycle * float64(n))
	bitBase := page * a.spec.PageBytes * 8
	for b := 0; b < a.spec.PageBytes*8; b++ {
		a.progTimeUs[bitBase+b] += slow
	}
}

// Program writes data at off with NOR semantics: only 1→0 transitions
// take effect. Bits actually programmed acquire the programmed Vt level
// (with spread). It returns the per-byte simulated program time in µs
// (the sum over programmed bits), which the Wang baseline measures.
func (a *Array) Program(off int, data []byte) (totalTimeUs float64, err error) {
	if err := a.checkRange(off, len(data)); err != nil {
		return 0, err
	}
	for i, b := range data {
		cleared := a.programByte(off+i, b)
		for k := 0; k < 8; k++ {
			if cleared&(1<<k) != 0 {
				bit := (off+i)*8 + k
				totalTimeUs += float64(a.progTimeUs[bit]) +
					a.noise.NormScaled(0, a.spec.MeasureNoiseUs)
				a.vt[bit] = float32(a.noise.NormScaled(a.spec.VtProgrammed, a.spec.VtSigma))
			}
		}
	}
	return totalTimeUs, nil
}

// CycleBits stresses an arbitrary set of bit indices with n extra P/E
// cycles each without changing their digital contents — the Wang et al.
// encoding knob, used by the group-of-128 encoding of the Wang baseline.
func (a *Array) CycleBits(bits []int, n int) error {
	if n < 0 {
		return errors.New("flash: negative cycle count")
	}
	slow := float32(a.spec.WearSlowdownUsPerCycle * float64(n))
	for _, b := range bits {
		if b < 0 || b >= len(a.progTimeUs) {
			return fmt.Errorf("flash: bit %d out of range", b)
		}
		a.progTimeUs[b] += slow
	}
	return nil
}

// MeasureProgramTime programs a scratch pattern conceptually and reports
// the (noisy) program time of one bit cell without altering digital
// contents — the decode-side measurement of the Wang baseline.
func (a *Array) MeasureProgramTime(bit int) (float64, error) {
	if bit < 0 || bit >= len(a.progTimeUs) {
		return 0, fmt.Errorf("flash: bit %d out of range", bit)
	}
	return float64(a.progTimeUs[bit]) + a.noise.NormScaled(0, a.spec.MeasureNoiseUs), nil
}

// Overcharge pushes an already-programmed (0) bit to the higher Vt level
// — the Zuck et al. encoding primitive. Overcharging an erased bit is an
// error: it would flip the digital value and reveal the channel.
func (a *Array) Overcharge(bit int) error {
	if bit < 0 || bit >= len(a.vt) {
		return fmt.Errorf("flash: bit %d out of range", bit)
	}
	if a.data[bit/8]&(1<<(bit%8)) != 0 {
		return fmt.Errorf("flash: bit %d is erased; overcharge would corrupt public data", bit)
	}
	a.vt[bit] = float32(a.noise.NormScaled(a.spec.VtOvercharged, a.spec.VtSigma))
	return nil
}

// MarginRead returns a noisy threshold-voltage measurement for a bit —
// the decode-side primitive of the Zuck baseline.
func (a *Array) MarginRead(bit int) (float64, error) {
	if bit < 0 || bit >= len(a.vt) {
		return 0, fmt.Errorf("flash: bit %d out of range", bit)
	}
	return float64(a.vt[bit]) + a.noise.NormScaled(0, a.spec.MeasureNoiseV), nil
}
