package flash

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"
)

// pinLog hashes every value an analog script returns, in call order.
type pinLog struct {
	t *testing.T
	h hash.Hash
}

func (p *pinLog) f(v float64, err error) {
	p.t.Helper()
	if err != nil {
		p.t.Fatal(err)
	}
	p.h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
}

func (p *pinLog) b(v []byte, err error) {
	p.t.Helper()
	if err != nil {
		p.t.Fatal(err)
	}
	p.h.Write(v)
}

func (p *pinLog) ok(err error) {
	p.t.Helper()
	if err != nil {
		p.t.Fatal(err)
	}
}

// TestArrayAnalogPins pins the analog baselines' model: every value a
// fixed script reads from a small seeded Array, in order, hashed. The
// script touches each analog plane and each draw from the measurement
// noise stream, so a change to the planes, the wear bookkeeping or the
// order of noise draws moves the hash. The literal was recorded before
// Array was built on Store, and re-recorded on that code with only the
// hash of the per-page wear counter removed, when the counter went: the
// wear itself is in the program times MeasureProgramTime reads.
func TestArrayAnalogPins(t *testing.T) {
	s := small()
	s.Seed = 20
	a := mustNew(t, s)
	p := &pinLog{t: t, h: sha256.New()}

	pattern := func(n int, mul, add byte) []byte {
		out := make([]byte, n)
		for i := range out {
			out[i] = byte(i)*mul + add
		}
		return out
	}
	// Two overlapping programs: the second clears only the bits the first
	// left at 1.
	p.f(a.Program(10, pattern(150, 7, 3)))
	p.f(a.Program(100, pattern(120, 5, 1)))
	a.wearPage(1, 40)
	p.ok(a.CycleBits([]int{3, 64, 65, 700, 2047, 4095}, 25))
	for bit := 0; bit < 1024; bit += 3 {
		p.f(a.MeasureProgramTime(bit))
	}
	// Overcharge every fifth programmed bit of the first three pages.
	for bit := 0; bit < 3*s.PageBytes*8; bit += 5 {
		by, err := a.ByteAt(bit / 8)
		p.ok(err)
		if by&(1<<(bit%8)) == 0 {
			p.ok(a.Overcharge(bit))
		}
	}
	for bit := 0; bit < 3*s.PageBytes*8; bit += 2 {
		p.f(a.MarginRead(bit))
	}
	p.ok(a.ErasePage(1))
	p.ok(a.ErasePage(2))
	p.f(a.Program(64, pattern(64, 11, 9)))
	for bit := 512; bit < 1536; bit += 7 {
		p.f(a.MarginRead(bit))
		p.f(a.MeasureProgramTime(bit))
	}
	p.b(a.Read(0, a.Bytes()))

	const want = "9ff162cb1ca3e7dd8bdcae021d122ab063972b62a97a554020fd1ce52e6d0aff"
	if got := hex.EncodeToString(p.h.Sum(nil)); got != want {
		t.Errorf("analog script sha256 %s, want %s", got, want)
	}
}
