package imaging

import (
	"strings"
	"testing"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 5); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := New(5, -1); err == nil {
		t.Error("negative height accepted")
	}
}

func TestSetAt(t *testing.T) {
	bm, err := New(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	bm.Set(2, 3, true)
	if !bm.At(2, 3) || bm.At(3, 2) {
		t.Fatal("Set/At disagree")
	}
	bm.Set(2, 3, false)
	if bm.At(2, 3) {
		t.Fatal("clear failed")
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	g := Glyph()
	packed := g.Pack()
	if len(packed) != 32*32/8 {
		t.Fatalf("packed length = %d", len(packed))
	}
	back, err := Unpack(packed, 32, 32)
	if err != nil {
		t.Fatal(err)
	}
	rate, err := ErrorRate(g, back)
	if err != nil {
		t.Fatal(err)
	}
	if rate != 0 {
		t.Fatalf("round trip error rate = %v", rate)
	}
}

func TestUnpackValidation(t *testing.T) {
	if _, err := Unpack(make([]byte, 1), 32, 32); err == nil {
		t.Error("short data accepted")
	}
}

func TestErrorRateMismatch(t *testing.T) {
	a, _ := New(2, 2)
	b, _ := New(3, 2)
	if _, err := ErrorRate(a, b); err == nil {
		t.Error("size mismatch accepted")
	}
}

func TestErrorRateCounts(t *testing.T) {
	a, _ := New(2, 2)
	b, _ := New(2, 2)
	b.Set(0, 0, true)
	r, err := ErrorRate(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if r != 0.25 {
		t.Fatalf("rate = %v", r)
	}
}

func TestGlyphLooksLikeIB(t *testing.T) {
	g := Glyph()
	// Border pixels set.
	if !g.At(0, 0) || !g.At(31, 31) {
		t.Error("border missing")
	}
	// Interior gap between border and letters is clear.
	if g.At(3, 12) {
		t.Error("expected clear pixel at (3,12)")
	}
	// "I" stem present.
	if !g.At(7, 15) {
		t.Error("I stem missing")
	}
	// "B" stem present.
	if !g.At(17, 15) {
		t.Error("B stem missing")
	}
	// Meaningful ink coverage (not all set, not all clear).
	set := 0
	for _, p := range g.Pixels {
		if p != 0 {
			set++
		}
	}
	frac := float64(set) / 1024
	if frac < 0.2 || frac > 0.8 {
		t.Errorf("ink fraction = %v", frac)
	}
}

func TestASCIIRendering(t *testing.T) {
	bm, _ := New(2, 2)
	bm.Set(0, 0, true)
	out := bm.ASCII()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "██") {
		t.Errorf("row 0 = %q", lines[0])
	}
}
