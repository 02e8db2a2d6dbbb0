package sram

import (
	"context"
	"testing"

	"invisiblebits/internal/analog"
)

// FuzzCaptureEquivalence drives the word-parallel kernel and the serial
// unpruned reference engine through an arbitrary device history —
// identity seed, array size, capture count, temperature, imprint aging,
// worker count, remanence, noise generation — and requires bit-identical
// votes, data planes and counter consumption, from the uint16 output
// and from a VotePlane captured on a third twin. This is the kernel's
// contract in one sentence: every fast path (deterministic-plane
// pruning, packed float32 classification, bit-sliced counting, dense
// edge resolution) is an exact rewrite of the reference race.
func FuzzCaptureEquivalence(f *testing.F) {
	// Remanence-first-capture: the retained contents count as capture 1.
	f.Add(uint64(1), uint16(128), uint16(5), int16(25), uint16(40), uint8(2), true, false)
	// Heavy imprint: essentially every cell deterministic — the det
	// planes carry the burst and the packed residue is nearly empty.
	f.Add(uint64(2), uint16(256), uint16(7), int16(25), uint16(5000), uint8(1), false, false)
	// Fresh device: every cell noisy — no pruning, pure packed kernel.
	f.Add(uint64(3), uint16(192), uint16(9), int16(10), uint16(0), uint8(3), false, false)
	// v1 noise plane: Box–Muller path, pruning disabled by design.
	f.Add(uint64(4), uint16(64), uint16(3), int16(40), uint16(12), uint8(2), false, true)

	f.Fuzz(func(t *testing.T, seed uint64, cells, captures uint16,
		tempC int16, imprintCentihours uint16, workers uint8, remanent, genV1 bool) {
		n := int(cells)%512 + 8
		n -= n % 8
		spec := DefaultSpec()
		spec.Rows = 1
		spec.Cols = n
		spec.Seed = seed
		spec.NoiseGen = NoiseGenZiggurat
		if genV1 {
			spec.NoiseGen = NoiseGenBoxMuller
		}
		caps := int(captures)%33 + 1
		temp := float64(int(tempC) % 86) // −85..85 °C
		hours := float64(imprintCentihours) / 100
		w := int(workers)%4 + 1

		mk := func(workers int) *Array {
			s := spec
			s.Workers = workers
			a, err := New(s)
			if err != nil {
				t.Fatal(err)
			}
			if hours > 0 {
				if _, err := a.PowerOn(25); err != nil {
					t.Fatal(err)
				}
				pat := make([]byte, a.Bytes())
				for i := range pat {
					pat[i] = byte(seed>>3) ^ 0x5A
				}
				if err := a.StressWithPattern(pat, analog.Conditions{VoltageV: 3.6, TempC: 105}, hours); err != nil {
					t.Fatal(err)
				}
				a.PowerOff(true)
			}
			if remanent {
				if _, err := a.PowerOn(25); err != nil {
					t.Fatal(err)
				}
				a.PowerOff(false) // leave charge: next capture reads retained state
			}
			return a
		}
		ak := mk(w)
		ar := mk(1)
		vk, err := ak.CaptureVotesContext(context.Background(), caps, temp)
		if err != nil {
			t.Fatal(err)
		}
		vr, err := ar.CaptureVotesReference(caps, temp)
		if err != nil {
			t.Fatal(err)
		}
		for i := range vk {
			if vk[i] != vr[i] {
				t.Fatalf("cell %d: kernel votes %d, reference votes %d (n=%d caps=%d temp=%v hours=%v workers=%d rem=%v v1=%v)",
					i, vk[i], vr[i], n, caps, temp, hours, w, remanent, genV1)
			}
		}
		dk, _ := ak.Read()
		dr, _ := ar.Read()
		for i := range dk {
			if dk[i] != dr[i] {
				t.Fatalf("data byte %d: kernel %02x, reference %02x", i, dk[i], dr[i])
			}
		}
		if ak.PowerOnCount() != ar.PowerOnCount() {
			t.Fatalf("counter consumption diverged: kernel %d, reference %d",
				ak.PowerOnCount(), ar.PowerOnCount())
		}

		ap := mk(w)
		var plane VotePlane
		if err := ap.CaptureVotePlaneInto(context.Background(), caps, temp, &plane); err != nil {
			t.Fatal(err)
		}
		if plane.Cells() != n || plane.captures != caps {
			t.Fatalf("plane sized %d cells / %d captures, want %d / %d", plane.Cells(), plane.captures, n, caps)
		}
		for i := range vr {
			if got := plane.Count(i); got != vr[i] {
				t.Fatalf("cell %d: plane votes %d, reference votes %d", i, got, vr[i])
			}
		}
		dp, _ := ap.Read()
		for i := range dp {
			if dp[i] != dr[i] {
				t.Fatalf("data byte %d: plane burst %02x, reference %02x", i, dp[i], dr[i])
			}
		}
		if ap.PowerOnCount() != ar.PowerOnCount() {
			t.Fatalf("counter consumption diverged: plane burst %d, reference %d",
				ap.PowerOnCount(), ar.PowerOnCount())
		}
	})
}
