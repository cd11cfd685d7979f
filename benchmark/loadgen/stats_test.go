package loadgen

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{9, 1, 5, 3, 7}, 5}, // the median of five rounds
	} {
		if got := Median(tc.in); !near(got, tc.want) {
			t.Errorf("Median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	in := []float64{3, 1, 2}
	Median(in)
	if in[0] != 3 {
		t.Error("Median reordered its argument")
	}
}

// The expected values are what Python's statistics.quantiles(v, n=4)
// gives, which is what the benchmark's driver computes.
func TestSpreadMatchesPythonQuartiles(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, (8.25 - 2.75) / 5.5},
		{[]float64{10, 12, 11, 13, 15}, (14 - 10.5) / 12},
		{[]float64{2, 4}, (4.5 - 1.5) / 3}, // two values: Python extrapolates
		{[]float64{5}, 0},
		{[]float64{0, 0, 0}, 0},
	} {
		if got := Spread(tc.in); !near(got, tc.want) {
			t.Errorf("Spread(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{50: 50, 90: 90, 99: 99, 100: 100, 0: 1} {
		if got := Percentile(s, p); got != want {
			t.Errorf("Percentile(1..100, %v) = %v, want %v", p, got, want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("Percentile(nil) = %v", got)
	}
}

// The tail is the highest percentile with at least ten samples beyond
// it.
func TestTailPercentile(t *testing.T) {
	for n, want := range map[int]float64{
		0: 0, 99: 0, 100: 90, 199: 90, 200: 95, 999: 95, 1000: 99, 9999: 99, 10000: 99.9, 100000: 99.99,
	} {
		if got := TailPercentile(n); got != want {
			t.Errorf("TailPercentile(%d) = %v, want %v", n, got, want)
		}
	}
}
