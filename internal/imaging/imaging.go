// Package imaging provides the tiny bitmap support the visual
// demonstrations need (Fig. 1's encoded image and Fig. 8's repetition-
// code cleanup): a 1-bit image type, bit packing for payloads, ASCII
// rendering for terminals, and a built-in test glyph.
package imaging

import (
	"fmt"
	"strings"
)

// Bitmap is a 1-bit image; Pixels[y*W+x] != 0 means a set (dark) pixel.
type Bitmap struct {
	W, H   int
	Pixels []byte
}

// New allocates a cleared bitmap.
func New(w, h int) (*Bitmap, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("imaging: bad dimensions %dx%d", w, h)
	}
	return &Bitmap{W: w, H: h, Pixels: make([]byte, w*h)}, nil
}

// At returns the pixel at (x, y).
func (b *Bitmap) At(x, y int) bool { return b.Pixels[y*b.W+x] != 0 }

// Set writes the pixel at (x, y).
func (b *Bitmap) Set(x, y int, v bool) {
	if v {
		b.Pixels[y*b.W+x] = 1
	} else {
		b.Pixels[y*b.W+x] = 0
	}
}

// Pack serializes the pixels into bit-packed bytes (row-major, LSB-first)
// for use as a message payload.
func (b *Bitmap) Pack() []byte {
	out := make([]byte, (len(b.Pixels)+7)/8)
	for i, p := range b.Pixels {
		if p != 0 {
			out[i/8] |= 1 << (i % 8)
		}
	}
	return out
}

// Unpack restores a bitmap of the given dimensions from packed payload
// bits (the inverse of Pack).
func Unpack(data []byte, w, h int) (*Bitmap, error) {
	bm, err := New(w, h)
	if err != nil {
		return nil, err
	}
	if len(data)*8 < w*h {
		return nil, fmt.Errorf("imaging: %d bytes cannot hold %dx%d bits", len(data), w, h)
	}
	for i := 0; i < w*h; i++ {
		if data[i/8]&(1<<(i%8)) != 0 {
			bm.Pixels[i] = 1
		}
	}
	return bm, nil
}

// ASCII renders the bitmap with block characters for terminals.
func (b *Bitmap) ASCII() string {
	var sb strings.Builder
	for y := 0; y < b.H; y++ {
		for x := 0; x < b.W; x++ {
			if b.At(x, y) {
				sb.WriteString("██")
			} else {
				sb.WriteString("  ")
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// ErrorRate returns the fraction of differing pixels between two
// same-sized bitmaps.
func ErrorRate(a, b *Bitmap) (float64, error) {
	if a.W != b.W || a.H != b.H {
		return 0, fmt.Errorf("imaging: size mismatch %dx%d vs %dx%d", a.W, a.H, b.W, b.H)
	}
	diff := 0
	for i := range a.Pixels {
		if (a.Pixels[i] != 0) != (b.Pixels[i] != 0) {
			diff++
		}
	}
	return float64(diff) / float64(len(a.Pixels)), nil
}

// Glyph returns a built-in 32x32 test image (a bold "IB" monogram on a
// border), used by the Fig. 1 / Fig. 8 demonstrations.
func Glyph() *Bitmap {
	bm, err := New(32, 32)
	if err != nil {
		panic(err) // static dimensions; cannot fail
	}
	for y := 0; y < 32; y++ {
		for x := 0; x < 32; x++ {
			border := x < 2 || y < 2 || x >= 30 || y >= 30
			// "I": vertical bar columns 6-10 with serifs.
			iBar := x >= 6 && x < 10 && y >= 6 && y < 26
			iSerif := (y >= 6 && y < 9 || y >= 23 && y < 26) && x >= 4 && x < 12
			// "B": stem plus two bowls, columns 16-27.
			bStem := x >= 16 && x < 20 && y >= 6 && y < 26
			bTop := y >= 6 && y < 9 && x >= 16 && x < 26
			bMid := y >= 15 && y < 17 && x >= 16 && x < 26
			bBot := y >= 23 && y < 26 && x >= 16 && x < 26
			bRight := x >= 24 && x < 27 && ((y >= 8 && y < 16) || (y >= 17 && y < 24))
			bm.Set(x, y, border || iBar || iSerif || bStem || bTop || bMid || bBot || bRight)
		}
	}
	return bm
}
