package sram_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"testing"

	"invisiblebits/internal/device"
	"invisiblebits/internal/rng"
	"invisiblebits/internal/sram"
)

// historySpec is a 16 KiB MSP432P401 array on the given worker budget.
func historySpec(tb testing.TB, workers int) sram.Spec {
	tb.Helper()
	m, err := device.ByName("MSP432P401")
	if err != nil {
		tb.Fatal(err)
	}
	spec := sram.DefaultSpec()
	spec.Rows, spec.Cols = 256, 512
	spec.MismatchSigmaMv = m.MismatchSigmaMv
	spec.Aging = m.AgingParams()
	spec.Seed = 0x4157494e47 // "AGING"
	spec.Workers = workers
	return spec
}

// payload is a seeded pseudo-random data plane for a.
func payload(a *sram.Array, seed uint64) []byte {
	p := make([]byte, a.Bytes())
	rng.NewSource(seed).Bytes(p)
	return p
}

// agingStateSHA256 hashes an array's state the way TestDeviceBitPins
// hashes a device's: the data plane, then each of the six pools
// (s0Perm, s0Fast, s0Slow, s1Perm, s1Fast, s1Slow) over every cell as
// float32 bits, each equivalent stress time (t0, then t1) over every
// cell as float64 bits, and PowerOns and the noise generation (2, the
// ziggurat plane) as uint64, all little-endian.
func agingStateSHA256(a *sram.Array) string {
	h := sha256.New()
	st := a.StateSnapshot()
	h.Write(st.Data)
	var b [8]byte
	for _, pool := range [][]float32{st.S0Perm, st.S0Fast, st.S0Slow, st.S1Perm, st.S1Fast, st.S1Slow} {
		for _, v := range pool {
			binary.LittleEndian.PutUint32(b[:4], math.Float32bits(v))
			h.Write(b[:4])
		}
	}
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for dir := 0; dir < 2; dir++ {
		for i := 0; i < a.Cells(); i++ {
			t0, t1 := a.EquivalentTimes(i)
			put(math.Float64bits([2]float64{t0, t1}[dir]))
		}
	}
	put(st.PowerOns)
	put(2)
	return hex.EncodeToString(h.Sum(nil))
}

// agingBiasSHA256 hashes every cell's decision variable as the
// little-endian bits of its float64 value.
func agingBiasSHA256(a *sram.Array) string {
	h := sha256.New()
	var b [8]byte
	for i := 0; i < a.Cells(); i++ {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(a.Bias(i)))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestAgingHistoryPins pins the state a two-payload usage history
// leaves on a 16 KiB MSP432P401 array: payload A stressed in four
// 2.5 h slices at the accelerated point, 48 h on the shelf at 45 °C
// (decay, stale equivalent times), then payload B stressed for one
// more slice (a second history grown from the decayed state). It pins
// the bias plane, the decoded state and a 5-capture vote plane at
// 25 °C, at one worker, at GOMAXPROCS and at a pool of four, and
// requires the same state after an AppendState/ReadState round trip
// taken between the shelf and the rewrite.
//
// These are the only exact checks of decay, stale times and a second
// history: TestStressMatchesReference compares to a tolerance and
// TestSaveLoadResumeEquivalence compares the engine with itself. The
// literals were recorded on the per-cell engine, before aging state
// moved to history classes; they may only be re-recorded on the parent
// of a change that moves them, with the reason in CHANGES.md.
func TestAgingHistoryPins(t *testing.T) {
	want := struct{ bias, state, votes string }{
		"ecccb70a4a2118da90558f0e25d90a372fde2e6f44c4461f173a0ae7ff76ed25",
		"6bbc49d4a1bb25baecb1429ff406198c5a06c8c765544617af325dd4da687aa7",
		"077ad6bec2c7dc9afd3394366acc752947ba115f060be7f9cd6718a4b46c154f",
	}
	m, err := device.ByName("MSP432P401")
	if err != nil {
		t.Fatal(err)
	}
	acc := m.Accelerated()
	for _, workers := range []int{1, runtime.GOMAXPROCS(0), 4} {
		for _, roundTrip := range []bool{false, true} {
			t.Run(fmt.Sprintf("workers=%d/roundtrip=%v", workers, roundTrip), func(t *testing.T) {
				spec := historySpec(t, workers)
				a, err := sram.New(spec)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := a.PowerOn(25); err != nil {
					t.Fatal(err)
				}
				if err := a.Write(payload(a, 0xA)); err != nil {
					t.Fatal(err)
				}
				for s := 0; s < 4; s++ {
					if err := a.Stress(acc, 2.5); err != nil {
						t.Fatal(err)
					}
				}
				a.PowerOff(true)
				if err := a.ShelveAt(48, 45); err != nil {
					t.Fatal(err)
				}
				if roundTrip {
					b, err := sram.New(spec)
					if err != nil {
						t.Fatal(err)
					}
					rest, err := b.ReadState(a.AppendState(nil))
					if err != nil || len(rest) != 0 {
						t.Fatalf("ReadState: %v, %d bytes left", err, len(rest))
					}
					a = b
				}
				if _, err := a.PowerOn(25); err != nil {
					t.Fatal(err)
				}
				if err := a.Write(payload(a, 0xB)); err != nil {
					t.Fatal(err)
				}
				if err := a.Stress(acc, 2.5); err != nil {
					t.Fatal(err)
				}

				if got := agingBiasSHA256(a); got != want.bias {
					t.Errorf("bias plane sha256 %s, want %s", got, want.bias)
				}
				if got := agingStateSHA256(a); got != want.state {
					t.Errorf("state sha256 %s, want %s", got, want.state)
				}
				a.PowerOff(true)
				var p sram.VotePlane
				if err := a.CaptureVotePlaneInto(context.Background(), 5, 25, &p); err != nil {
					t.Fatal(err)
				}
				counts := make([]uint16, a.Cells())
				p.CountsInto(counts)
				h := sha256.New()
				var b [2]byte
				for _, c := range counts {
					binary.LittleEndian.PutUint16(b[:], c)
					h.Write(b[:])
				}
				if got := hex.EncodeToString(h.Sum(nil)); got != want.votes {
					t.Errorf("vote plane sha256 %s, want %s", got, want.votes)
				}
			})
		}
	}
}

// BenchmarkStressHistories times Stress on a 16 KiB array in the
// shapes a carrier's aging history takes: soak, one payload over four
// 2.5 h slices (two histories, the encoding case every bench workload
// runs); steady, the crash-safe campaign's shape, one payload over 16
// one-hour slices with a state section appended after every second
// slice (a checkpoint image's array part); and rewrites, 42 random 4 h
// rewrites, after which nearly every cell has a history of its own (a
// week of ordinary use, the worst case for sharing aging state between
// cells).
func BenchmarkStressHistories(b *testing.B) {
	m, err := device.ByName("MSP432P401")
	if err != nil {
		b.Fatal(err)
	}
	acc := m.Accelerated()
	a, err := sram.New(historySpec(b, 0))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := a.PowerOn(25); err != nil {
		b.Fatal(err)
	}
	fresh := a.AppendState(nil)
	var img []byte
	for _, bc := range []struct {
		name      string
		payloads  int
		slices    int
		hours     float64
		ckptEvery int // slices between state sections; 0 for none
	}{
		{"soak", 1, 4, 2.5, 0},
		{"steady", 1, 16, 1, 2},
		{"rewrites", 42, 1, 4, 0},
	} {
		plans := make([][]byte, bc.payloads)
		for k := range plans {
			plans[k] = payload(a, uint64(k+1))
		}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if _, err := a.ReadState(fresh); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for _, p := range plans {
					if err := a.Write(p); err != nil {
						b.Fatal(err)
					}
					for s := 1; s <= bc.slices; s++ {
						if err := a.Stress(acc, bc.hours); err != nil {
							b.Fatal(err)
						}
						if bc.ckptEvery > 0 && s%bc.ckptEvery == 0 {
							img = a.AppendState(img[:0])
						}
					}
				}
			}
		})
	}
}
