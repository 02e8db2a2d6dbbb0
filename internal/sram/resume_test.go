package sram_test

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"invisiblebits/internal/device"
	"invisiblebits/internal/rng"
	"invisiblebits/internal/sram"
)

// TestSaveLoadResumeEquivalence is the exact-resume property: for every
// catalog model at its accelerated point and every slice split, a
// device saved and loaded between any two Stress calls stays
// bit-identical to its uninterrupted twin — pools, equivalent stress
// times, bias plane and data. Before images carried the equivalent
// times, 18 of these 36 cases ended with every cell's bias off in its
// last bits.
func TestSaveLoadResumeEquivalence(t *testing.T) {
	splits := [][]float64{{2.5, 2.5, 2.5, 2.5}, {5, 2.5, 2.5}, {5, 5}}
	for _, m := range device.Catalog {
		for _, split := range splits {
			t.Run(fmt.Sprintf("%s/%v", m.Name, split), func(t *testing.T) {
				twin := resumeDevice(t, m)
				d := resumeDevice(t, m)
				for k, h := range split {
					if k > 0 {
						var img bytes.Buffer
						if err := d.Save(&img); err != nil {
							t.Fatal(err)
						}
						var err error
						if d, err = device.Load(&img); err != nil {
							t.Fatal(err)
						}
					}
					for _, x := range []*device.Device{twin, d} {
						if err := x.SRAM.Stress(m.Accelerated(), h); err != nil {
							t.Fatal(err)
						}
					}
					if diff := arrayDiff(twin.SRAM, d.SRAM); diff != "" {
						t.Fatalf("after slice %d: %s", k+1, diff)
					}
				}
			})
		}
	}
}

// resumeDevice is a powered 4 KiB sample of m holding a fixed random
// payload.
func resumeDevice(t *testing.T, m device.Model) *device.Device {
	t.Helper()
	d, err := device.New(m, "resume-1", device.WithSRAMLimit(4<<10))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.PowerOn(25); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, d.SRAM.Bytes())
	rng.NewSource(42).Bytes(payload)
	if err := d.SRAM.Write(payload); err != nil {
		t.Fatal(err)
	}
	return d
}

// arrayDiff reports the first state component in which b differs from
// a, bit for bit, or "".
func arrayDiff(a, b *sram.Array) string {
	sa, sb := a.StateSnapshot(), b.StateSnapshot()
	if !bytes.Equal(sa.Data, sb.Data) {
		return "data plane differs"
	}
	pa := [][]float32{sa.S0Perm, sa.S0Fast, sa.S0Slow, sa.S1Perm, sa.S1Fast, sa.S1Slow}
	pb := [][]float32{sb.S0Perm, sb.S0Fast, sb.S0Slow, sb.S1Perm, sb.S1Fast, sb.S1Slow}
	for p := range pa {
		for i := range pa[p] {
			if math.Float32bits(pa[p][i]) != math.Float32bits(pb[p][i]) {
				return fmt.Sprintf("pool %d of cell %d: %v vs %v", p, i, pa[p][i], pb[p][i])
			}
		}
	}
	for i := 0; i < a.Cells(); i++ {
		a0, a1 := a.EquivalentTimes(i)
		b0, b1 := b.EquivalentTimes(i)
		if math.Float64bits(a0) != math.Float64bits(b0) || math.Float64bits(a1) != math.Float64bits(b1) {
			return fmt.Sprintf("equivalent times of cell %d: (%v, %v) vs (%v, %v)", i, a0, a1, b0, b1)
		}
		if x, y := a.Bias(i), b.Bias(i); math.Float64bits(x) != math.Float64bits(y) {
			return fmt.Sprintf("bias of cell %d: %v vs %v", i, x, y)
		}
	}
	return ""
}

// A state section that fails validation leaves the array as it was.
func TestReadStateRejectsWithoutWriting(t *testing.T) {
	spec := sram.DefaultSpec()
	spec.Rows, spec.Cols = 32, 64
	aged := func(pattern byte) *sram.Array {
		a, err := sram.New(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.PowerOn(25); err != nil {
			t.Fatal(err)
		}
		if err := a.Fill(pattern); err != nil {
			t.Fatal(err)
		}
		if err := a.Stress(spec.Aging.Ref, 3); err != nil {
			t.Fatal(err)
		}
		return a
	}
	src, dst := aged(0x0F), aged(0x3C)
	sec := src.AppendState(nil)
	// The table follows the 18-byte head, the data plane and the class
	// count; repeating its first entry makes the section non-canonical.
	table := 18 + src.Bytes() + 4
	copy(sec[table+40:table+80], sec[table:table+40])
	before := dst.AppendState(nil)
	if _, err := dst.ReadState(sec); err == nil {
		t.Fatal("a section with a repeated class loaded")
	}
	if after := dst.AppendState(nil); !bytes.Equal(after, before) {
		t.Fatal("a rejected section changed the array")
	}
}
