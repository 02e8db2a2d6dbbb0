package stats

import (
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
)

// errFieldSize rejects a packed plane whose bit count disagrees with
// the stated layout.
var errFieldSize = errors.New("stats: field length does not match rows*cols")

// Word-packed plane statistics: the fleet-sweep hot paths (steganalysis
// scans, health probes) evaluated directly on packed bit planes and
// vote-count histograms instead of per-cell loops.

// MoranIPacked computes Moran's I with rook weights for a binary field
// stored packed — bit i of snap is the cell at row i/cols, column
// i%cols — without expanding to one float per cell. For a binary field
// the cross-product and moment sums collapse to join counts: the number
// of 1–1, 1–0 and 0–0 neighbour pairs, countable 64 cells at a time
// with popcounts over shifted-plane ANDs. The closed forms group float
// terms differently from MoranI2D's per-cell accumulation, so results
// agree to float rounding (≲1e-12 relative), not bit-for-bit; the
// statistic, moments and p-value are otherwise the same quantities.
//
// Layouts the packed walk cannot handle (cols not a multiple of 8, or
// a degenerate single row/column) fall back to the expanded path.
func MoranIPacked(snap []byte, rows, cols int) (MoranResult, error) {
	n := rows * cols
	if n != len(snap)*8 {
		return MoranResult{}, errFieldSize
	}
	if n < 2 {
		return MoranResult{}, ErrDegenerateField
	}
	if cols%8 != 0 || rows < 2 || cols < 2 {
		f := make([]float64, n)
		for i := range f {
			if snap[i/8]&(1<<(i%8)) != 0 {
				f[i] = 1
			}
		}
		return MoranI2D(f, rows, cols)
	}
	rowBytes := cols / 8

	// One pass over the plane: total ones, horizontal/vertical 1–1 join
	// counts, and the edge-endpoint sums that turn them into 1–0 and
	// 0–0 counts.
	var n1, j11h, j11v, s1h, s1v int
	for r := 0; r < rows; r++ {
		row := snap[r*rowBytes : (r+1)*rowBytes]
		ones := HammingWeight(row)
		n1 += ones

		// Horizontal 1–1 pairs: popcount(w & w>>1) per word, plus the
		// pair straddling each word boundary.
		var prev uint64
		i := 0
		for ; i+8 <= rowBytes; i += 8 {
			w := binary.LittleEndian.Uint64(row[i:])
			j11h += bits.OnesCount64(w&(w>>1)) + int(prev&w&1)
			prev = w >> 63
		}
		for ; i < rowBytes; i++ {
			b := uint64(row[i])
			j11h += bits.OnesCount64(b&(b>>1)) + int(prev&b&1)
			prev = b >> 7
		}
		// Horizontal edge-endpoint sum: interior columns touch two
		// horizontal edges, the first and last column one each.
		s1h += 2*ones - int(row[0]&1) - int(row[rowBytes-1]>>7)
		// Vertical edge-endpoint sum: first and last rows touch one
		// vertical edge per cell, interior rows two.
		dv := 2
		if r == 0 || r == rows-1 {
			dv = 1
		}
		s1v += dv * ones

		// Vertical 1–1 pairs: AND with the row below, 64 cells a word.
		if r+1 < rows {
			next := snap[(r+1)*rowBytes : (r+2)*rowBytes]
			i = 0
			for ; i+8 <= rowBytes; i += 8 {
				j11v += bits.OnesCount64(binary.LittleEndian.Uint64(row[i:]) &
					binary.LittleEndian.Uint64(next[i:]))
			}
			for ; i < rowBytes; i++ {
				j11v += bits.OnesCount8(row[i] & next[i])
			}
		}
	}

	eh := rows * (cols - 1) // horizontal edges
	ev := (rows - 1) * cols // vertical edges
	j10 := (s1h - 2*j11h) + (s1v - 2*j11v)
	j11 := j11h + j11v
	j00 := (eh + ev) - j11 - j10

	// Binary-field closed forms: with mean µ = n1/n, a cell's deviation
	// is b = 1−µ (ones) or a = −µ (zeros), so the moment sums and the
	// neighbour cross-product are weighted counts.
	fn := float64(n)
	mean := float64(n1) / fn
	a, b := -mean, 1-mean
	n0 := float64(n - n1)
	f1 := float64(n1)
	m2 := f1*b*b + n0*a*a
	if m2 == 0 {
		return MoranResult{}, ErrDegenerateField
	}
	m4 := f1*b*b*b*b + n0*a*a*a*a
	cross := 2 * (float64(j11)*b*b + float64(j10)*a*b + float64(j00)*a*a)
	s0 := float64(2 * (eh + ev))

	iStat := (fn / s0) * (cross / m2)
	expected := -1 / (fn - 1)

	// Cliff & Ord randomization moments, with S2 = 4·Σ deg² from the
	// four rook degree classes (corner 2, border 3, interior 4).
	s1 := 2 * s0
	s2 := 4 * float64(4*4+
		9*(2*(cols-2)+2*(rows-2))+
		16*(rows-2)*(cols-2))
	b2 := fn * m4 / (m2 * m2)
	num := fn*((fn*fn-3*fn+3)*s1-fn*s2+3*s0*s0) -
		b2*((fn*fn-fn)*s1-2*fn*s2+6*s0*s0)
	den := (fn - 1) * (fn - 2) * (fn - 3) * s0 * s0
	variance := num/den - expected*expected
	if variance < 0 {
		variance = 0
	}

	res := MoranResult{I: iStat, Expected: expected, Variance: variance, N: n}
	if variance > 0 {
		res.Z = (iStat - expected) / math.Sqrt(variance)
		res.PValue = 2 * (1 - NormalCDF(math.Abs(res.Z)))
	}
	return res, nil
}

// VoteTable precomputes per-vote-value statistics for a capture burst
// of a given depth: a cell that read 1 in v of the captures has vote
// fraction p = v/captures, margin |2p−1| and Bernoulli entropy H(p).
// Since v takes only captures+1 values, any per-cell statistic over a
// vote plane reduces to a histogram (sram.VotePlane.HistogramInto)
// dotted with these tables — no per-cell division or log.
type VoteTable struct {
	Margin  []float64 // Margin[v] = |2·(v/captures) − 1|
	Entropy []float64 // Entropy[v] = H(v/captures) in bits
}

// NewVoteTable builds the tables for a burst of the given depth. Each
// entry evaluates exactly the expression the per-cell loops used, so
// table lookups are bit-identical to computing from the count.
func NewVoteTable(captures int) *VoteTable {
	t := &VoteTable{
		Margin:  make([]float64, captures+1),
		Entropy: make([]float64, captures+1),
	}
	for v := 0; v <= captures; v++ {
		p := float64(v) / float64(captures)
		m := 2*p - 1
		if m < 0 {
			m = -m
		}
		t.Margin[v] = m
		t.Entropy[v] = BitEntropy(p)
	}
	return t
}
