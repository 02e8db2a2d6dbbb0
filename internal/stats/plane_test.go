package stats

import (
	"math"
	"testing"

	"invisiblebits/internal/rng"
)

// expandBits unpacks a packed plane into one float per cell, bit i →
// cell (i/cols, i%cols) — the layout MoranIPacked documents.
func expandBits(snap []byte) []float64 {
	f := make([]float64, len(snap)*8)
	for i := range f {
		if snap[i/8]&(1<<(i%8)) != 0 {
			f[i] = 1
		}
	}
	return f
}

// moranClose compares two MoranResults to the rounding tolerance the
// packed path documents (different float grouping, same quantities).
func moranClose(t *testing.T, name string, got, want MoranResult) {
	t.Helper()
	if got.N != want.N {
		t.Fatalf("%s: N = %d, want %d", name, got.N, want.N)
	}
	for _, f := range []struct {
		field string
		g, w  float64
	}{
		{"I", got.I, want.I},
		{"Expected", got.Expected, want.Expected},
		{"Variance", got.Variance, want.Variance},
		{"Z", got.Z, want.Z},
		{"PValue", got.PValue, want.PValue},
	} {
		diff := math.Abs(f.g - f.w)
		scale := math.Max(math.Abs(f.w), 1)
		if diff/scale > 1e-9 {
			t.Fatalf("%s: %s = %v, want %v (rel err %v)", name, f.field, f.g, f.w, diff/scale)
		}
	}
}

// TestMoranIPackedMatchesScalar: the join-count path agrees with the
// expanded MoranI2D oracle on random, structured, checkerboard and
// sparse planes across layouts, including non-multiple-of-8 column
// counts (fallback path), single-word rows and a 256×256 die.
func TestMoranIPackedMatchesScalar(t *testing.T) {
	src := rng.NewSource(0x90a0)
	layouts := []struct{ rows, cols int }{
		{2, 8}, {8, 8}, {16, 64}, {64, 128}, {3, 40}, {128, 64},
		{4, 4},     // cols%8 != 0: fallback
		{5, 24},    // odd rows, 3-byte rows (byte tail in the word loop)
		{2, 256},   // minimum row count, wide rows
		{256, 256}, // an 8 KiB snapshot on a 256-row die
	}
	fill := func(snap []byte, kind int) {
		switch kind {
		case 0: // uniform random
			src.Bytes(snap)
		case 1: // all zeros bar one bit
			for i := range snap {
				snap[i] = 0
			}
			snap[src.Intn(len(snap))] = 1 << src.Intn(8)
		case 2: // checkerboard
			for i := range snap {
				snap[i] = 0x55
			}
		case 3: // blocky stripes (high autocorrelation)
			for i := range snap {
				if i/4%2 == 0 {
					snap[i] = 0xFF
				} else {
					snap[i] = 0
				}
			}
		case 4: // sparse random
			for i := range snap {
				snap[i] = byte(src.Intn(256)) & byte(src.Intn(256)) & byte(src.Intn(256))
			}
		}
	}
	for _, lay := range layouts {
		snap := make([]byte, lay.rows*lay.cols/8)
		if lay.rows*lay.cols%8 != 0 {
			continue
		}
		for kind := 0; kind < 5; kind++ {
			if kind == 1 && lay.rows*lay.cols > 1<<14 {
				// On a lone one bit among 65536 cells the kurtosis term is
				// ill-conditioned and the oracle's float sums drift: its
				// Variance is 3e-8 off the exact value against 5e-10 for
				// the packed path's closed-form moments.
				continue
			}
			fill(snap, kind)
			want, wantErr := MoranI2D(expandBits(snap), lay.rows, lay.cols)
			got, gotErr := MoranIPacked(snap, lay.rows, lay.cols)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%dx%d kind %d: err %v, scalar err %v", lay.rows, lay.cols, kind, gotErr, wantErr)
			}
			if gotErr != nil {
				continue
			}
			moranClose(t, "layout", got, want)
		}
	}
}

// TestMoranIPackedDegenerate: constant planes and mismatched layouts
// fail the same way as the scalar path.
func TestMoranIPackedDegenerate(t *testing.T) {
	all := make([]byte, 8*8/8)
	for i := range all {
		all[i] = 0xFF
	}
	if _, err := MoranIPacked(all, 8, 8); err != ErrDegenerateField {
		t.Errorf("all-ones: err = %v, want ErrDegenerateField", err)
	}
	if _, err := MoranIPacked(make([]byte, 8), 8, 8); err != ErrDegenerateField {
		t.Errorf("all-zeros: err = %v, want ErrDegenerateField", err)
	}
	if _, err := MoranIPacked(make([]byte, 8), 4, 8); err == nil {
		t.Error("accepted a layout that disagrees with the byte count")
	}
	if _, err := MoranIPacked(nil, 0, 0); err == nil {
		t.Error("accepted an empty field")
	}
	// Single row / single column route through the fallback and carry
	// its semantics.
	row := []byte{0xA5}
	wantR, errR := MoranIBits(expandBytes(row), 1, 8)
	gotR, gotErrR := MoranIPacked(row, 1, 8)
	if (gotErrR == nil) != (errR == nil) {
		t.Fatalf("single row: err %v, scalar %v", gotErrR, errR)
	}
	if gotErrR == nil {
		moranClose(t, "single-row", gotR, wantR)
	}
}

// expandBytes converts packed bits to the 0/1 byte slice MoranIBits
// consumes.
func expandBytes(snap []byte) []byte {
	out := make([]byte, len(snap)*8)
	for i := range out {
		if snap[i/8]&(1<<(i%8)) != 0 {
			out[i] = 1
		}
	}
	return out
}

// TestHammingChunkedMatchesPerByte: the 8-byte-word weight and distance
// walks agree with a per-bit reference at sizes straddling the word
// boundary.
func TestHammingChunkedMatchesPerByte(t *testing.T) {
	src := rng.NewSource(0x90a1)
	perBitWeight := func(b []byte) int {
		n := 0
		for _, v := range b {
			for k := 0; k < 8; k++ {
				n += int(v >> k & 1)
			}
		}
		return n
	}
	for _, size := range []int{0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 1000} {
		a := make([]byte, size)
		b := make([]byte, size)
		src.Bytes(a)
		src.Bytes(b)
		if got, want := HammingWeight(a), perBitWeight(a); got != want {
			t.Fatalf("weight/%dB: %d, want %d", size, got, want)
		}
		x := make([]byte, size)
		for i := range x {
			x[i] = a[i] ^ b[i]
		}
		if got, want := HammingDistance(a, b), perBitWeight(x); got != want {
			t.Fatalf("distance/%dB: %d, want %d", size, got, want)
		}
	}
}

// TestVoteTableExact: table entries equal the per-cell expressions
// bit-for-bit, and the histogram counts every cell with clamping.
func TestVoteTableExact(t *testing.T) {
	for _, captures := range []int{1, 5, 15, 100} {
		tab := NewVoteTable(captures)
		for v := 0; v <= captures; v++ {
			p := float64(v) / float64(captures)
			m := 2*p - 1
			if m < 0 {
				m = -m
			}
			if tab.Margin[v] != m {
				t.Fatalf("captures=%d v=%d: margin %v, want %v", captures, v, tab.Margin[v], m)
			}
			if tab.Entropy[v] != BitEntropy(p) {
				t.Fatalf("captures=%d v=%d: entropy %v, want %v", captures, v, tab.Entropy[v], BitEntropy(p))
			}
		}
	}
	tab := NewVoteTable(5)
	hist := make([]int, 6)
	votes := []uint16{0, 5, 5, 3, 99} // 99 clamps to the top bin
	tab.Histogram(votes, hist)
	want := []int{1, 0, 0, 1, 0, 3}
	for i := range want {
		if hist[i] != want[i] {
			t.Fatalf("hist = %v, want %v", hist, want)
		}
	}
	total := 0
	for _, c := range hist {
		total += c
	}
	if total != len(votes) {
		t.Fatalf("histogram dropped cells: %d of %d", total, len(votes))
	}
}
