package experiments_test

import (
	"strings"
	"testing"

	"repro/internal/experiments"
)

func TestTableAlignment(t *testing.T) {
	out := experiments.Table(
		[]string{"name", "value"},
		[][]string{{"a", "1"}, {"longer-name", "22"}},
	)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d, want 4 (header, rule, 2 rows)", len(lines))
	}
	if !strings.HasPrefix(lines[0], "name") {
		t.Errorf("header = %q", lines[0])
	}
	// All rows are padded to the same visual width per column: the
	// value column starts at the same offset everywhere.
	off := strings.Index(lines[0], "value")
	if strings.Index(lines[2]+"      ", "1") < off-1 {
		t.Errorf("misaligned rows:\n%s", out)
	}
	if !strings.Contains(lines[1], "---") {
		t.Errorf("missing separator: %q", lines[1])
	}
}

func TestSeriesTable(t *testing.T) {
	s := []experiments.Series{
		{Name: "a", X: []int{1, 2}, Y: []float64{1.5, 2.5}},
		{Name: "b", X: []int{1, 2}, Y: []float64{3}},
	}
	out := experiments.SeriesTable("x", s, "%.1f")
	if !strings.Contains(out, "1.5") || !strings.Contains(out, "2.5") {
		t.Errorf("missing values:\n%s", out)
	}
	if !strings.Contains(out, "-") {
		t.Errorf("short series should render '-':\n%s", out)
	}
	if experiments.SeriesTable("x", nil, "%f") != "" {
		t.Error("empty series should render empty string")
	}
}

func TestChartRendersAllSeries(t *testing.T) {
	s := []experiments.Series{
		{Name: "up", X: []int{1, 10, 20}, Y: []float64{1, 5, 9}},
		{Name: "flat", X: []int{1, 10, 20}, Y: []float64{3, 3, 3}},
	}
	out := experiments.Chart("title", "x", "y", s, 40, 10)
	if !strings.Contains(out, "title") || !strings.Contains(out, "up") || !strings.Contains(out, "flat") {
		t.Errorf("chart missing parts:\n%s", out)
	}
	if !strings.Contains(out, "o") || !strings.Contains(out, "*") {
		t.Errorf("chart missing glyphs:\n%s", out)
	}
}

func TestChartEmptyData(t *testing.T) {
	out := experiments.Chart("t", "x", "y", nil, 30, 10)
	if !strings.Contains(out, "no data") {
		t.Errorf("empty chart = %q", out)
	}
}

func TestF(t *testing.T) {
	if experiments.F(3.14159, 2) != "3.14" {
		t.Errorf("F = %q", experiments.F(3.14159, 2))
	}
}
