// Package textplot renders the experiment results as plain-text tables
// and simple ASCII charts for the cmd/ tools, so every paper figure has a
// terminal-friendly rendition alongside its raw series data.
package textplot

import (
	"fmt"
	"math"
	"strings"
)

// Table renders rows with aligned columns. header may be nil.
func Table(header []string, rows [][]string) string {
	widths := make([]int, 0)
	grow := func(cells []string) {
		for i, c := range cells {
			if i >= len(widths) {
				widths = append(widths, 0)
			}
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if header != nil {
		grow(header)
	}
	for _, r := range rows {
		grow(r)
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			sb.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		sb.WriteByte('\n')
	}
	if header != nil {
		writeRow(header)
		total := 0
		for _, w := range widths {
			total += w + 2
		}
		sb.WriteString(strings.Repeat("-", total-2))
		sb.WriteByte('\n')
	}
	for _, r := range rows {
		writeRow(r)
	}
	return sb.String()
}

// Series is one named line of (x, y) points.
type Series struct {
	Name string
	X, Y []float64
}

// Chart renders one or more series as an ASCII scatter/line chart of the
// given size. Each series uses its own glyph.
func Chart(title, xLabel, yLabel string, series []Series, width, height int) string {
	if width < 16 {
		width = 16
	}
	if height < 6 {
		height = 6
	}
	glyphs := []byte{'*', 'o', '+', 'x', '#', '@', '%', '&'}

	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, s := range series {
		for i := range s.X {
			minX = math.Min(minX, s.X[i])
			maxX = math.Max(maxX, s.X[i])
			minY = math.Min(minY, s.Y[i])
			maxY = math.Max(maxY, s.Y[i])
		}
	}
	if math.IsInf(minX, 1) {
		return title + "\n(no data)\n"
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range series {
		g := glyphs[si%len(glyphs)]
		for i := range s.X {
			c := int((s.X[i] - minX) / (maxX - minX) * float64(width-1))
			r := height - 1 - int((s.Y[i]-minY)/(maxY-minY)*float64(height-1))
			if r >= 0 && r < height && c >= 0 && c < width {
				grid[r][c] = g
			}
		}
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", title)
	fmt.Fprintf(&sb, "%s (max %.4g)\n", yLabel, maxY)
	for _, row := range grid {
		sb.WriteString("  |")
		sb.Write(row)
		sb.WriteByte('\n')
	}
	sb.WriteString("  +")
	sb.WriteString(strings.Repeat("-", width))
	sb.WriteByte('\n')
	fmt.Fprintf(&sb, "   %-.4g%s%.4g  (%s)\n", minX,
		strings.Repeat(" ", max(1, width-12)), maxX, xLabel)
	if len(series) > 1 {
		sb.WriteString("  legend:")
		for si, s := range series {
			fmt.Fprintf(&sb, " %c=%s", glyphs[si%len(glyphs)], s.Name)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Histogram renders value counts as horizontal bars.
func Histogram(title string, labels []string, values []float64, width int) string {
	if width < 10 {
		width = 10
	}
	maxV := 0.0
	for _, v := range values {
		if v > maxV {
			maxV = v
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", title)
	for i, v := range values {
		bar := 0
		if maxV > 0 {
			bar = int(v / maxV * float64(width))
		}
		label := ""
		if i < len(labels) {
			label = labels[i]
		}
		fmt.Fprintf(&sb, "  %-10s |%s %.4g\n", label, strings.Repeat("#", bar), v)
	}
	return sb.String()
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Percent formats a fraction as a percentage string.
func Percent(f float64) string { return fmt.Sprintf("%.2f%%", 100*f) }
