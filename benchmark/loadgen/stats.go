package loadgen

import (
	"math"
	"sort"
)

// Median returns the median of v (0 for an empty slice). v is not
// modified.
func Median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Spread is the distance between the first and third quartile of v as
// a share of its median — the run-to-run spread the benchmark contract
// compares against a metric's bound. Quartiles follow Python's
// statistics.quantiles(v, n=4) (the exclusive method), because that is
// what the driver computes. Fewer than two values have no spread.
func Spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := sorted(v)
	m := Median(s)
	if m == 0 {
		return 0
	}
	return math.Abs(quartile(s, 3)-quartile(s, 1)) / math.Abs(m)
}

// quartile returns cut point i (1..3) of sorted data s.
func quartile(s []float64, i int) float64 {
	n := len(s)
	j := i * (n + 1) / 4
	if j < 1 {
		j = 1
	}
	if j > n-1 {
		j = n - 1
	}
	delta := i*(n+1) - j*4 // taken after the clamp, as Python does
	return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
}

// Percentile returns the p-th percentile (0..100) of sorted data by
// nearest rank.
func Percentile(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// tailCandidates are the tail percentiles the benchmark may report,
// highest first.
var tailCandidates = []float64{99.99, 99.9, 99, 95, 90}

// TailPercentile picks the highest candidate percentile that still has
// at least ten of the n samples beyond it; with fewer than a hundred
// samples no tail is supported and it returns 0.
func TailPercentile(n int) float64 {
	for _, p := range tailCandidates {
		if float64(n)*(100-p)/100 >= 10-1e-9 { // 100-99.9 is not exact
			return p
		}
	}
	return 0
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}
