package experiments

// The renderers of the experiments' tables and figure series: aligned
// ASCII tables and simple line charts, so cmd/experiments can print
// every table and figure of the paper.

import (
	"fmt"
	"math"
	"strings"
)

// Table renders an aligned ASCII table.
func Table(headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

// Series is one named curve of a figure.
type Series struct {
	Name string
	X    []int
	Y    []float64
}

// SeriesTable renders curves as a table with one row per x value and
// one column per series — the exact data behind a paper figure.
func SeriesTable(xLabel string, series []Series, format string) string {
	if len(series) == 0 {
		return ""
	}
	headers := []string{xLabel}
	for _, s := range series {
		headers = append(headers, s.Name)
	}
	var rows [][]string
	for i, x := range series[0].X {
		row := []string{fmt.Sprint(x)}
		for _, s := range series {
			if i < len(s.Y) {
				row = append(row, fmt.Sprintf(format, s.Y[i]))
			} else {
				row = append(row, "-")
			}
		}
		rows = append(rows, row)
	}
	return Table(headers, rows)
}

// Chart renders the series as an ASCII line chart (points marked with
// per-series glyphs), echoing the look of the paper's figures.
func Chart(title, xLabel, yLabel string, series []Series, width, height int) string {
	if width < 20 {
		width = 20
	}
	if height < 8 {
		height = 8
	}
	glyphs := []byte{'o', '*', '+', 'x', '#', '@', '%', '&', '$', '~'}

	var xmax int
	var ymax float64
	for _, s := range series {
		for _, x := range s.X {
			if x > xmax {
				xmax = x
			}
		}
		for _, y := range s.Y {
			if y > ymax {
				ymax = y
			}
		}
	}
	if xmax == 0 || ymax == 0 {
		return title + ": (no data)\n"
	}
	ymax *= 1.05

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range series {
		g := glyphs[si%len(glyphs)]
		for i := range s.X {
			if i >= len(s.Y) {
				break
			}
			c := int(math.Round(float64(s.X[i]) / float64(xmax) * float64(width-1)))
			r := height - 1 - int(math.Round(s.Y[i]/ymax*float64(height-1)))
			if r < 0 {
				r = 0
			}
			if r >= height {
				r = height - 1
			}
			grid[r][c] = g
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%s\n", yLabel)
	for r := 0; r < height; r++ {
		yVal := ymax * float64(height-1-r) / float64(height-1)
		fmt.Fprintf(&b, "%8.1f |%s\n", yVal, string(grid[r]))
	}
	fmt.Fprintf(&b, "%8s +%s\n", "", strings.Repeat("-", width))
	fmt.Fprintf(&b, "%8s  %-*s%s\n", "", width-len(xLabel), "0", xLabel)
	for si, s := range series {
		fmt.Fprintf(&b, "    %c %s\n", glyphs[si%len(glyphs)], s.Name)
	}
	return b.String()
}

// F formats a float compactly for table cells.
func F(v float64, prec int) string {
	return fmt.Sprintf("%.*f", prec, v)
}
