package rig

import (
	"context"
	"math"
	"testing"

	"invisiblebits/internal/device"
	"invisiblebits/internal/stats"
)

func healthRig(t *testing.T, serial string) *Rig {
	t.Helper()
	m, err := device.ByName("MSP432P401")
	if err != nil {
		t.Fatal(err)
	}
	d, err := device.New(m, serial, device.WithSRAMLimit(2<<10))
	if err != nil {
		t.Fatal(err)
	}
	return New(d)
}

// TestProbeHealthMatchesPerCellReference: the histogram-dotted-with-
// tables aggregation agrees with the per-cell margin/entropy loop it
// replaced. Two rigs with the same serial observe identical capture
// streams, so the reference can recompute from its own twin's votes.
func TestProbeHealthMatchesPerCellReference(t *testing.T) {
	const captures = 15
	const regionBytes = 256

	rep, err := healthRig(t, "health-eq").ProbeHealth(captures, regionBytes)
	if err != nil {
		t.Fatal(err)
	}

	twin := healthRig(t, "health-eq")
	votes := make([]uint16, twin.Device().SRAM.Cells())
	if err := twin.SampleVotesIntoContext(context.Background(), captures, votes); err != nil {
		t.Fatal(err)
	}
	nBytes := len(votes) / 8
	close := func(a, b float64) bool { return math.Abs(a-b) <= 1e-12 }

	if len(rep.Regions) != (nBytes+regionBytes-1)/regionBytes {
		t.Fatalf("got %d regions for %d bytes at %dB each", len(rep.Regions), nBytes, regionBytes)
	}
	var totM, totH float64
	totWeak := 0
	for _, reg := range rep.Regions {
		var sumM, sumH float64
		weak := 0
		for i := reg.Offset * 8; i < (reg.Offset+reg.Bytes)*8; i++ {
			p := float64(votes[i]) / float64(captures)
			m := math.Abs(2*p - 1)
			sumM += m
			sumH += stats.BitEntropy(p)
			if m < WeakCellMargin {
				weak++
			}
		}
		cells := float64(reg.Bytes * 8)
		if !close(reg.MeanMargin, sumM/cells) || !close(reg.MeanEntropy, sumH/cells) {
			t.Fatalf("region @%d: margin/entropy %v/%v, reference %v/%v",
				reg.Offset, reg.MeanMargin, reg.MeanEntropy, sumM/cells, sumH/cells)
		}
		// Weak-cell classification is exact (integer count), not merely close.
		if reg.WeakFrac != float64(weak)/cells {
			t.Fatalf("region @%d: weak %v, reference %v", reg.Offset, reg.WeakFrac, float64(weak)/cells)
		}
		totM += sumM
		totH += sumH
		totWeak += weak
	}
	cells := float64(nBytes * 8)
	if !close(rep.MeanMargin, totM/cells) || !close(rep.MeanEntropy, totH/cells) ||
		rep.WeakFrac != float64(totWeak)/cells {
		t.Fatalf("array-wide %v/%v/%v, reference %v/%v/%v",
			rep.MeanMargin, rep.MeanEntropy, rep.WeakFrac,
			totM/cells, totH/cells, float64(totWeak)/cells)
	}
}

// TestSampleVotesIntoMatchesSampleVotes: the allocation-free vote
// sampler observes the same capture stream whether each burst gets a
// fresh buffer or one buffer is reused (twin rigs, same serial ⇒ same
// noise sequence). The reused buffer starts dirty and the bursts shrink
// from 7 captures to 3, so a count accumulated into, or left over from
// the wider plane, shows as a differing vote.
func TestSampleVotesIntoMatchesSampleVotes(t *testing.T) {
	fresh, reused := healthRig(t, "votes-into"), healthRig(t, "votes-into")
	got := make([]uint16, reused.Device().SRAM.Cells())
	for i := range got {
		got[i] = 0xffff
	}
	for _, captures := range []int{7, 3} {
		want := make([]uint16, fresh.Device().SRAM.Cells())
		if err := fresh.SampleVotesIntoContext(context.Background(), captures, want); err != nil {
			t.Fatal(err)
		}
		if err := reused.SampleVotesIntoContext(context.Background(), captures, got); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%d captures: vote %d differs: %d vs %d", captures, i, got[i], want[i])
			}
		}
	}
}

// TestProbeHealthFreshVsDecayed: sanity on the statistic itself — a
// fresh (never-stressed) array reads near-perfect margin, and shelving
// after an encode can only lower it.
func TestProbeHealthFreshVsDecayed(t *testing.T) {
	r := healthRig(t, "health-decay")
	fresh, err := r.ProbeHealth(15, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.MeanMargin < 0.8 {
		t.Fatalf("fresh margin %v, want near 1", fresh.MeanMargin)
	}
	if err := r.ShelveFor(3 * 365 * 24); err != nil {
		t.Fatal(err)
	}
	aged, err := r.ProbeHealth(15, 0)
	if err != nil {
		t.Fatal(err)
	}
	if aged.MeanMargin > fresh.MeanMargin {
		t.Fatalf("margin rose with age: %v → %v", fresh.MeanMargin, aged.MeanMargin)
	}
}
