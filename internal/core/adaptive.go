package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"invisiblebits/internal/ecc"
	"invisiblebits/internal/rig"
	"invisiblebits/internal/sram"
)

// Adaptive-decode defaults.
const (
	// DefaultInitialCaptures is the cheap first rung: three captures is
	// the minimum odd majority, a fraction of the paper's five.
	DefaultInitialCaptures = 3
	// DefaultMaxAdaptiveCaptures caps the ladder's total capture budget
	// per decode (5× the paper's count at the deepest rung).
	DefaultMaxAdaptiveCaptures = 25
	// DefaultErasureDeadZone is the half-width around P=0.5 inside which
	// a coded bit's vote confidence is declared an erasure: with 15
	// captures, |votes/15 − 0.5| ≤ 0.15 means the cell split at worst
	// 10–5 — channel noise, not imprint.
	DefaultErasureDeadZone = 0.15
)

// Rung names used in DecodeReport.
const (
	RungHard     = "hard"
	RungHardMore = "hard+captures"
	RungSoft     = "soft"
	RungErasure  = "erasure"
)

// AdaptiveOptions configures DecodeAdaptive. The embedded Options carry
// the codec and key; Captures is ignored (the ladder sets its own
// schedule from InitialCaptures/MaxCaptures).
type AdaptiveOptions struct {
	Options
	// InitialCaptures is the first rung's capture count (rounded up to
	// odd); 0 means DefaultInitialCaptures.
	InitialCaptures int
	// MaxCaptures caps total captures across all rungs; 0 means
	// DefaultMaxAdaptiveCaptures. A cap above sram.MaxCaptures, which
	// the accumulated counts could not represent, is rejected with
	// *sram.CaptureCountError before any capture.
	MaxCaptures int
}

func (a AdaptiveOptions) initial() int {
	n := a.InitialCaptures
	if n <= 0 {
		n = DefaultInitialCaptures
	}
	if n%2 == 0 {
		n++
	}
	return n
}

func (a AdaptiveOptions) max() int {
	m := a.MaxCaptures
	if m <= 0 {
		m = DefaultMaxAdaptiveCaptures
	}
	if m < a.initial() {
		m = a.initial()
	}
	return m
}

// RungResult records one attempt of the escalation ladder.
type RungResult struct {
	Name     string // RungHard, RungHardMore, RungSoft, RungErasure
	Captures int    // cumulative captures available to this rung
	Verified bool   // digest matched on this rung
	Skipped  bool   // rung not applicable (codec lacks soft/erasure support)
	Note     string // failure or skip reason
}

// DecodeReport is the structured account of an adaptive decode: which
// rungs ran, how much capture effort was spent, and how noisy the
// channel looked once the message was pinned down.
type DecodeReport struct {
	Rungs         []RungResult
	CapturesSpent int    // total power-on captures consumed
	Verified      bool   // digest verified on some rung
	VerifiedRung  string // name of the verifying rung ("" if none)
	// ResidualChannelError is the fraction of payload bits whose
	// accumulated hard majority disagrees with the re-encoded verified
	// message — the channel error the ladder decoded through. It is
	// measured in the coded domain, after decryption, so a key supplied
	// for an unencrypted record changes nothing. −1 when unknown (no
	// verified message to re-encode).
	ResidualChannelError float64
	// UnresolvedBits counts message bits the erasure rung left open
	// (only meaningful when the erasure rung ran).
	UnresolvedBits int
}

// Escalated reports whether the ladder needed more than its first rung:
// extra captures were spent beyond the initial burst, or the verifying
// rung was not the first one attempted.
func (rep *DecodeReport) Escalated() bool {
	if rep == nil || len(rep.Rungs) == 0 {
		return false
	}
	if rep.CapturesSpent > rep.Rungs[0].Captures {
		return true
	}
	return rep.Verified && rep.VerifiedRung != rep.Rungs[0].Name
}

// DecodeAdaptive runs the self-verifying escalation ladder against the
// rig's device. It starts with a cheap low-capture hard decode, checks
// the record's integrity digest, and escalates only on mismatch:
//
//	hard @ I captures → hard @ 3I → soft @ Max → erasure-aware @ Max
//
// (capped at MaxCaptures). Captures accumulate across rungs — vote
// counts from earlier bursts are reused, never re-sampled from scratch
// — so the ladder's total cost is the deepest rung's capture count, not
// the sum. The deepest rung marks coded bits whose vote confidence sits
// inside the dead zone as erasures (requires the codec to implement
// ecc.ErasureDecoder; skipped otherwise).
//
// Votes accumulate bit-sliced (sram.VotePlane): each capture total is
// hard-decided once, and only the soft and erasure rungs unpack
// per-cell counts.
//
// On success the verified message and a DecodeReport are returned. On
// exhaustion the report is still returned alongside ErrDigestMismatch
// so callers can see how hard the ladder tried. Records without a
// digest fail fast with ErrNoDigest.
func DecodeAdaptive(ctx context.Context, r *rig.Rig, rec *Record, aopts AdaptiveOptions) ([]byte, *DecodeReport, error) {
	l := leaseArena(aopts.Arena)
	msg, report, err := decodeAdaptiveOn(ctx, l.DecodeArena, r, rec, aopts)
	return l.release(msg), report, err
}

// decodeAdaptiveOn is DecodeAdaptive on arena a: the vote accumulator,
// burst scratch and every tail stage live in the arena, and a
// hard-rung message is arena-owned.
func decodeAdaptiveOn(ctx context.Context, a *DecodeArena, r *rig.Rig, rec *Record, aopts AdaptiveOptions) ([]byte, *DecodeReport, error) {
	if rec == nil {
		return nil, nil, errors.New("core: nil record")
	}
	if !rec.HasDigest() {
		return nil, nil, ErrNoDigest
	}
	opts := aopts.Options
	codec := opts.codec()
	if codec.Name() != rec.CodecName {
		return nil, nil, fmt.Errorf("core: codec %q does not match record's %q", codec.Name(), rec.CodecName)
	}
	codedLen, err := recordCodedLen(rec, codec)
	if err != nil {
		return nil, nil, err
	}
	if rec.Encrypted && opts.Key == nil {
		return nil, nil, errors.New("core: record is encrypted but no key supplied")
	}
	// Capture schedule: I, then 3I, then the full budget. Odd totals
	// keep hard majorities tie-free. The deep rungs spend everything:
	// weak cells are per-capture coin flips, and their vote fractions
	// concentrate around ½ (where soft combining neutralizes them and
	// the dead zone erases them) only with a deep burst.
	initial := aopts.initial()
	maxCap := aopts.max()
	if maxCap > sram.MaxCaptures {
		return nil, nil, &sram.CaptureCountError{Captures: maxCap}
	}
	mid := oddCap(3*initial, maxCap)
	deep := oddCap(maxCap, maxCap)
	if err := prepareDecode(ctx, r, opts); err != nil {
		return nil, nil, err
	}

	report := &DecodeReport{ResidualChannelError: -1}
	// acc holds the accumulated votes, total its capture count.
	// sampleTo tops it up to a target count; earlier bursts are never
	// discarded. The first burst lands in acc itself, later ones in a
	// burst plane that is then ripple-added in.
	acc := &a.acc
	total := 0
	sampleTo := func(target int) error {
		delta := target - total
		if delta <= 0 {
			return nil
		}
		burst := acc
		if total > 0 {
			burst = &a.burstPlane
		}
		if err := retry(ctx, r, func() error {
			return r.SampleVotePlaneIntoContext(ctx, delta, burst)
		}); err != nil {
			return err
		}
		if total == 0 {
			if rec.PayloadBytes*8 > burst.Cells() {
				return fmt.Errorf("core: record claims %d payload bits but SRAM has %d cells",
					rec.PayloadBytes*8, burst.Cells())
			}
		} else if err := acc.Add(burst); err != nil {
			return err
		}
		total = target
		report.CapturesSpent = total
		return nil
	}

	// decided and counted are the capture totals the arena's payload
	// decision and unpacked counts hold (0: none yet).
	decided, counted := 0, 0
	// hardPayload hard-decides the accumulated votes and decrypts, once
	// per capture total: payload bit = ¬(power-on majority), i.e. votes
	// < ⌈total/2⌉, a sliced compare over 64 cells at a time. The
	// erasure rung and finish reuse the decision; the decoders only
	// read it.
	hardPayload := func() ([]byte, error) {
		p := a.payloadBuf(rec.PayloadBytes)
		if decided == total {
			return p, nil
		}
		decided = 0
		acc.BelowInto(p, (total+1)/2)
		if err := a.decryptInPlace(p, rec, opts); err != nil {
			return nil, err
		}
		decided = total
		return p, nil
	}
	// counts unpacks the payload cells' vote counts once per capture
	// total, for the soft and erasure rungs.
	counts := func() []uint16 {
		v := a.votesBuf(rec.PayloadBytes * 8)
		if counted != total {
			acc.CountsInto(v)
			counted = total
		}
		return v
	}

	finish := func(rung string, msg []byte) ([]byte, *DecodeReport, error) {
		report.Verified = true
		report.VerifiedRung = rung
		last := &report.Rungs[len(report.Rungs)-1]
		last.Verified = true
		// Residual channel error, in the coded domain: the re-encoded
		// verified message against the decrypted hard decision. The
		// CTR keystream flips both sides alike, so this is the channel
		// error rate of the payload as captured.
		if plain, err := hardPayload(); err == nil {
			if coded, err := codec.Encode(msg); err == nil && len(coded)+wordPad(len(coded)) == rec.PayloadBytes {
				report.ResidualChannelError = codedBitError(plain, coded)
			}
		}
		return msg, report, nil
	}

	type rung struct {
		name     string
		captures int
	}
	ladder := []rung{{RungHard, initial}}
	if mid > initial {
		ladder = append(ladder, rung{RungHardMore, mid})
	}
	ladder = append(ladder, rung{RungSoft, deep}, rung{RungErasure, deep})

	for _, step := range ladder {
		res := RungResult{Name: step.name, Captures: step.captures}
		var msg []byte
		var decErr error
		switch step.name {
		case RungSoft:
			soft, ok := codec.(ecc.SoftDecoder)
			if !ok {
				res.Skipped = true
				res.Note = fmt.Sprintf("codec %s has no soft decoder", codec.Name())
				report.Rungs = append(report.Rungs, res)
				continue
			}
			if err := sampleTo(step.captures); err != nil {
				return nil, report, err
			}
			conf, err := a.confidences(counts(), total, rec, opts)
			if err != nil {
				return nil, report, err
			}
			msg, decErr = soft.DecodeSoft(conf[:codedLen*8], rec.MessageBytes)
		case RungErasure:
			ed, ok := codec.(ecc.ErasureDecoder)
			if !ok {
				res.Skipped = true
				res.Note = fmt.Sprintf("codec %s has no erasure decoder", codec.Name())
				report.Rungs = append(report.Rungs, res)
				continue
			}
			if err := sampleTo(step.captures); err != nil {
				return nil, report, err
			}
			plain, err := hardPayload()
			if err != nil {
				return nil, report, err
			}
			erased := a.erasureMaskInto(counts(), total, rec.PayloadBytes*8, DefaultErasureDeadZone)
			var unresolved []bool
			msg, unresolved, decErr = ed.DecodeErasure(plain[:codedLen], erased[:codedLen*8], rec.MessageBytes)
			if decErr == nil {
				report.UnresolvedBits = ecc.CountUnresolved(unresolved)
			}
		default: // hard rungs
			if err := sampleTo(step.captures); err != nil {
				return nil, report, err
			}
			plain, err := hardPayload()
			if err != nil {
				return nil, report, err
			}
			m := a.msgBuf(rec.MessageBytes)
			if decErr = a.pipelineFor(codec).DecodeInto(m, plain[:codedLen], rec.MessageBytes); decErr == nil {
				msg = m
			}
		}
		if decErr != nil {
			res.Note = decErr.Error()
			report.Rungs = append(report.Rungs, res)
			continue
		}
		if verr := a.verifyMessage(rec, msg, opts.Key); verr != nil {
			if errors.Is(verr, ErrDigestNeedsKey) {
				return nil, report, verr
			}
			res.Note = verr.Error()
			report.Rungs = append(report.Rungs, res)
			continue
		}
		report.Rungs = append(report.Rungs, res)
		return finish(step.name, msg)
	}
	return nil, report, fmt.Errorf("%w: ladder exhausted after %d rungs and %d captures",
		ErrDigestMismatch, len(report.Rungs), report.CapturesSpent)
}

// oddCap clamps n to max and rounds down to odd so hard majorities
// never tie.
func oddCap(n, max int) int {
	if n > max {
		n = max
	}
	if n%2 == 0 {
		n--
	}
	return n
}

// codedBitError is the fraction of plain's bits that differ from coded
// followed by zero padding to len(plain) — the word padding an encoded
// payload carries. len(coded) must not exceed len(plain).
func codedBitError(plain, coded []byte) float64 {
	if len(plain) == 0 {
		return 0
	}
	diff, i := 0, 0
	for ; i+8 <= len(coded); i += 8 {
		diff += bits.OnesCount64(binary.LittleEndian.Uint64(plain[i:]) ^ binary.LittleEndian.Uint64(coded[i:]))
	}
	for ; i < len(plain); i++ {
		b := plain[i]
		if i < len(coded) {
			b ^= coded[i]
		}
		diff += bits.OnesCount8(b)
	}
	return float64(diff) / float64(8*len(plain))
}
