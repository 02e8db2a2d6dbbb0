package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func approxEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNormalCDFKnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1, 0.8413447460685429},
		{-1, 0.15865525393145707},
		{1.959963984540054, 0.975},
		{-2.326347874040841, 0.01},
	}
	for _, c := range cases {
		if got := NormalCDF(c.x); !approxEqual(got, c.want, 1e-12) {
			t.Errorf("NormalCDF(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestNormalQuantileRoundTrip(t *testing.T) {
	f := func(raw uint16) bool {
		p := (float64(raw) + 1) / (1<<16 + 1) // p in (0, 1): raw 65535 gives 65536/65537
		x := NormalQuantile(p)
		return approxEqual(NormalCDF(x), p, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestNormalQuantileKnown(t *testing.T) {
	if got := NormalQuantile(0.975); !approxEqual(got, 1.959963984540054, 1e-8) {
		t.Errorf("z(0.975) = %v", got)
	}
	if got := NormalQuantile(0.5); !approxEqual(got, 0, 1e-12) {
		t.Errorf("z(0.5) = %v", got)
	}
}

func TestNormalQuantilePanicsOutOfRange(t *testing.T) {
	for _, p := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NormalQuantile(%v) did not panic", p)
				}
			}()
			NormalQuantile(p)
		}()
	}
}

func TestStudentTCDFKnownValues(t *testing.T) {
	// Values from standard t tables.
	cases := []struct {
		t, df, want float64
		tol         float64
	}{
		{0, 5, 0.5, 1e-12},
		{2.015, 5, 0.95, 2e-4}, // t_{0.95,5} = 2.015
		{-2.015, 5, 0.05, 2e-4},
		{1.812, 10, 0.95, 2e-4},  // t_{0.95,10} = 1.812
		{2.228, 10, 0.975, 2e-4}, // t_{0.975,10} = 2.228
		{1.645, 1e6, 0.95, 1e-3}, // approaches the normal for large df
	}
	for _, c := range cases {
		if got := StudentTCDF(c.t, c.df); !approxEqual(got, c.want, c.tol) {
			t.Errorf("StudentTCDF(%v, %v) = %v, want %v", c.t, c.df, got, c.want)
		}
	}
}

func TestStudentTCDFSymmetry(t *testing.T) {
	f := func(rawT int16, rawDF uint8) bool {
		tv := float64(rawT) / 1000
		df := float64(rawDF%60) + 1
		return approxEqual(StudentTCDF(tv, df)+StudentTCDF(-tv, df), 1, 1e-10)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBinomialCoefficient(t *testing.T) {
	cases := []struct {
		n, k int
		want float64
	}{
		{0, 0, 1}, {5, 0, 1}, {5, 5, 1}, {5, 2, 10}, {7, 3, 35},
		{19, 10, 92378}, {10, -1, 0}, {10, 11, 0},
	}
	for _, c := range cases {
		if got := BinomialCoefficient(c.n, c.k); !approxEqual(got, c.want, 1e-9) {
			t.Errorf("C(%d,%d) = %v, want %v", c.n, c.k, got, c.want)
		}
	}
}

func TestBinomialSymmetryProperty(t *testing.T) {
	f := func(nRaw, kRaw uint8) bool {
		n := int(nRaw % 40)
		k := int(kRaw % 41)
		return BinomialCoefficient(n, k) == BinomialCoefficient(n, n-k) ||
			(k > n && BinomialCoefficient(n, k) == 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIncompleteBetaEdges(t *testing.T) {
	if got := regularizedIncompleteBeta(2, 3, 0); got != 0 {
		t.Errorf("I_0(2,3) = %v", got)
	}
	if got := regularizedIncompleteBeta(2, 3, 1); got != 1 {
		t.Errorf("I_1(2,3) = %v", got)
	}
	// I_x(1,1) = x (uniform distribution).
	for _, x := range []float64{0.1, 0.25, 0.5, 0.9} {
		if got := regularizedIncompleteBeta(1, 1, x); !approxEqual(got, x, 1e-12) {
			t.Errorf("I_%v(1,1) = %v", x, got)
		}
	}
}
