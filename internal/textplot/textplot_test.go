package textplot

import (
	"strings"
	"testing"
)

func TestTableAlignment(t *testing.T) {
	out := Table([]string{"Device", "Error"}, [][]string{
		{"MSP432P401", "6.5%"},
		{"BCM2837", "20.8%"},
	})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "Device") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[2], "MSP432P401") || !strings.Contains(lines[2], "6.5%") {
		t.Errorf("row = %q", lines[2])
	}
	// Columns align: "Error" column starts at the same offset in all rows.
	idx := strings.Index(lines[0], "Error")
	if !strings.HasPrefix(lines[2][idx:], "6.5%") {
		t.Errorf("misaligned column:\n%s", out)
	}
}

func TestTableNoHeader(t *testing.T) {
	out := Table(nil, [][]string{{"a", "b"}})
	if strings.Contains(out, "-") {
		t.Errorf("unexpected separator:\n%s", out)
	}
}

func TestChartRendersSeries(t *testing.T) {
	s := []Series{
		{Name: "up", X: []float64{0, 1, 2}, Y: []float64{0, 1, 2}},
		{Name: "down", X: []float64{0, 1, 2}, Y: []float64{2, 1, 0}},
	}
	out := Chart("test", "x", "y", s, 20, 8)
	if !strings.Contains(out, "test") || !strings.Contains(out, "legend:") {
		t.Errorf("chart missing title/legend:\n%s", out)
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Errorf("chart missing glyphs:\n%s", out)
	}
}

func TestChartEmptyAndDegenerate(t *testing.T) {
	if out := Chart("t", "x", "y", nil, 20, 8); !strings.Contains(out, "no data") {
		t.Errorf("empty chart = %q", out)
	}
	// Constant series must not divide by zero.
	s := []Series{{Name: "flat", X: []float64{1, 1}, Y: []float64{3, 3}}}
	out := Chart("t", "x", "y", s, 20, 8)
	if !strings.Contains(out, "*") {
		t.Errorf("flat chart missing point:\n%s", out)
	}
}

func TestHistogramBars(t *testing.T) {
	out := Histogram("h", []string{"a", "b"}, []float64{1, 2}, 10)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines:\n%s", out)
	}
	if strings.Count(lines[2], "#") != 10 || strings.Count(lines[1], "#") != 5 {
		t.Errorf("bar lengths wrong:\n%s", out)
	}
}

func TestHistogramAllZero(t *testing.T) {
	out := Histogram("h", []string{"a"}, []float64{0}, 10)
	if strings.Contains(out, "#") {
		t.Errorf("zero histogram has bars:\n%s", out)
	}
}

func TestFormatters(t *testing.T) {
	if Percent(0.065) != "6.50%" {
		t.Errorf("Percent = %q", Percent(0.065))
	}
}
