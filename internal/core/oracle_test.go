package core

import (
	"errors"
	"fmt"

	"invisiblebits/internal/stegocrypt"
)

// Reference oracles: the original allocate-per-stage scalar decode
// stages. Production decodes run only the DecodeArena tail; these stay
// here, verbatim, so the equivalence tests can hold every arena twin
// bit-identical to the straightforward expression of the same math.

// payloadFromVotes hard-decides the accumulated vote counts into
// payload bytes: payload bit = ¬(power-on majority).
func payloadFromVotes(votes []uint16, total, payloadBytes int) []byte {
	out := make([]byte, payloadBytes)
	for i := 0; i < payloadBytes*8; i++ {
		if 2*int(votes[i]) < total {
			out[i/8] |= 1 << (i % 8)
		}
	}
	return out
}

// erasureMask marks payload bits whose vote fraction sits within
// deadZone of 0.5 — cells the channel gave no real information about.
func erasureMask(votes []uint16, total, payloadBits int, deadZone float64) []bool {
	mask := make([]bool, payloadBits)
	half := float64(total) / 2
	band := deadZone * float64(total)
	for i := range mask {
		d := float64(votes[i]) - half
		if d < 0 {
			d = -d
		}
		mask[i] = d <= band
	}
	return mask
}

// decryptPayload reverses the encryption layer of an inverted payload
// when the record says one was applied.
func decryptPayload(payload []byte, rec *Record, opts Options) ([]byte, error) {
	if !rec.Encrypted {
		return payload, nil
	}
	if opts.Key == nil {
		return nil, errors.New("core: record is encrypted but no key supplied")
	}
	out, err := stegocrypt.StreamXOR(*opts.Key, rec.DeviceID, payload)
	if err != nil {
		return nil, fmt.Errorf("core: decrypt: %w", err)
	}
	return out, nil
}

// payloadConfidences converts per-cell power-on vote counts into
// per-payload-bit P(bit=1) confidences: payload bit = ¬(power-on bit),
// so P(payload=1) = 1 − votes/total, and decryption flips confidences
// where the keystream is 1 (XOR in probability space).
func payloadConfidences(votes []uint16, total int, rec *Record, opts Options) ([]float64, error) {
	payloadBits := rec.PayloadBytes * 8
	if payloadBits > len(votes) {
		return nil, fmt.Errorf("core: record claims %d payload bits but SRAM has %d cells",
			payloadBits, len(votes))
	}
	conf := make([]float64, payloadBits)
	invN := 1 / float64(total)
	for i := range conf {
		conf[i] = 1 - float64(votes[i])*invN
	}
	if rec.Encrypted {
		if opts.Key == nil {
			return nil, errors.New("core: record is encrypted but no key supplied")
		}
		ks, err := stegocrypt.StreamXOR(*opts.Key, rec.DeviceID, make([]byte, rec.PayloadBytes))
		if err != nil {
			return nil, fmt.Errorf("core: keystream: %w", err)
		}
		for i := range conf {
			if ks[i/8]&(1<<(i%8)) != 0 {
				conf[i] = 1 - conf[i]
			}
		}
	}
	return conf, nil
}
