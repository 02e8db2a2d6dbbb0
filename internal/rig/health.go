// Retention-health probing: estimating how much analog margin an
// imprint has left without knowing the plaintext. A freshly encoded
// cell powers on the same way every time (vote fraction near 0 or 1 —
// margin near 1); as the imprint decays toward the cell's native skew,
// power-on states destabilize and the per-cell vote distribution drifts
// toward a coin flip (margin near 0, Bernoulli entropy near 1 bit).
// Margin is therefore measurable from captures alone — no message, no
// key — which is what lets a fleet health-sweep carriers it cannot read.
package rig

import (
	"context"
	"fmt"

	"invisiblebits/internal/sram"
	"invisiblebits/internal/stats"
)

// DefaultHealthCaptures is the capture burst a health probe uses when
// the caller does not specify one. Margin estimation needs finer vote
// resolution than decode (a 5-capture majority quantizes p to fifths),
// so the default is 3× the paper's decode count.
const DefaultHealthCaptures = 15

// WeakCellMargin is the per-cell margin below which a cell counts as
// weak: |2p−1| < 0.5 means the minority outcome shows up in more than a
// quarter of captures — the cell is nearer a coin flip than an imprint.
const WeakCellMargin = 0.5

// RegionHealth is the margin estimate for one contiguous SRAM region.
type RegionHealth struct {
	Offset int // first byte of the region
	Bytes  int // region length in bytes
	// MeanMargin is the mean per-cell margin |2p−1| over the region,
	// where p is the cell's power-on-1 vote fraction: 1 = perfectly
	// stable imprint, 0 = pure noise.
	MeanMargin float64
	// MeanEntropy is the mean per-cell Bernoulli entropy H(p) in bits:
	// the complement view of margin (0 = stable, 1 = coin flip).
	MeanEntropy float64
	// WeakFrac is the fraction of cells with margin below
	// WeakCellMargin.
	WeakFrac float64
}

// HealthReport aggregates a whole-array probe.
type HealthReport struct {
	Captures    int
	Regions     []RegionHealth
	MeanMargin  float64 // array-wide mean per-cell margin
	MeanEntropy float64 // array-wide mean per-cell entropy (bits)
	WeakFrac    float64 // array-wide weak-cell fraction
}

// ProbeHealth estimates per-region imprint margin from a burst of
// power-on captures. regionBytes ≤ 0 probes the array as one region.
func (r *Rig) ProbeHealth(captures, regionBytes int) (*HealthReport, error) {
	return r.ProbeHealthContext(context.Background(), captures, regionBytes)
}

// ProbeHealthContext is ProbeHealth with cancellation; the capture
// burst rides the debugger link, so injected transient faults surface
// as errors the caller's retry policy can absorb.
func (r *Rig) ProbeHealthContext(ctx context.Context, captures, regionBytes int) (*HealthReport, error) {
	if captures <= 0 {
		captures = DefaultHealthCaptures
	}
	var votes sram.VotePlane
	if err := r.SampleVotePlaneIntoContext(ctx, captures, &votes); err != nil {
		return nil, err
	}
	nBytes := votes.Cells() / 8
	if nBytes == 0 {
		return nil, fmt.Errorf("rig: device has no SRAM cells to probe")
	}
	if regionBytes <= 0 || regionBytes > nBytes {
		regionBytes = nBytes
	}
	rep := &HealthReport{Captures: captures}
	// Vote counts take only captures+1 values, so per-region sums
	// reduce to a histogram, taken on the plane's slices, dotted with
	// per-value margin/entropy tables — no per-cell unpack, division or
	// log. The table entries evaluate the exact per-cell expressions, so
	// the weak-cell classification is unchanged; the dot-product groups
	// float additions differently, so region means agree with the
	// per-cell loop to rounding.
	tab := stats.NewVoteTable(captures)
	hist := make([]int, captures+1)
	var totM, totH float64
	totWeak := 0
	for off := 0; off < nBytes; off += regionBytes {
		end := off + regionBytes
		if end > nBytes {
			end = nBytes
		}
		votes.HistogramInto(hist, off*8, end*8)
		var sumM, sumH float64
		weak := 0
		for v, c := range hist {
			if c == 0 {
				continue
			}
			fc := float64(c)
			sumM += fc * tab.Margin[v]
			sumH += fc * tab.Entropy[v]
			if tab.Margin[v] < WeakCellMargin {
				weak += c
			}
		}
		cells := float64((end - off) * 8)
		rep.Regions = append(rep.Regions, RegionHealth{
			Offset:      off,
			Bytes:       end - off,
			MeanMargin:  sumM / cells,
			MeanEntropy: sumH / cells,
			WeakFrac:    float64(weak) / cells,
		})
		totM += sumM
		totH += sumH
		totWeak += weak
	}
	cells := float64(nBytes * 8)
	rep.MeanMargin = totM / cells
	rep.MeanEntropy = totH / cells
	rep.WeakFrac = float64(totWeak) / cells
	r.logf("health probe: margin %.3f entropy %.3f weak %.1f%% (%d captures, %d regions)",
		rep.MeanMargin, rep.MeanEntropy, 100*rep.WeakFrac, captures, len(rep.Regions))
	return rep, nil
}
