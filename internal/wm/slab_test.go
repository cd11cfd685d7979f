package wm_test

import (
	"math"
	"testing"

	"repro/internal/ops5"
	"repro/internal/wm"
)

// TestElementSlabChunks carves N element headers from a new memory and
// checks the allocations beyond wm.New's own: none before the first
// element, then chunks of 16 headers, each next one twice the last, so
// at most ⌈log2(N/16)⌉+1 while chunks still double (N ≤ 496), and one
// more per 256 headers after that. Every header is distinct and zero.
func TestElementSlabChunks(t *testing.T) {
	var m *wm.Memory
	base := testing.AllocsPerRun(10, func() { m = wm.New() })
	for _, n := range []int{0, 1, 16, 17, 48, 49, 100, 496, 497, 1000} {
		got := testing.AllocsPerRun(10, func() {
			m = wm.New()
			for range n {
				m.Carve()
			}
		}) - base
		bound := 0
		switch doubled := 496; { // 16+32+64+128+256, the doubling chunks
		case n > doubled:
			bound = 5 + (n-doubled+ops5.SlabMax-1)/ops5.SlabMax
		case n > 0:
			bound = max(0, int(math.Ceil(math.Log2(float64(n)/ops5.SlabFirst)))) + 1
		}
		if int(got) > bound {
			t.Errorf("%d elements: %.0f allocations beyond wm.New's, want at most %d", n, got, bound)
		}
	}
	m = wm.New()
	seen := make(map[*ops5.WME]bool)
	for range 1000 {
		w := m.Carve()
		if seen[w] || w.TimeTag != 0 || w.ClassID() != 0 || w.Fields() != nil {
			t.Fatalf("element %d: handed out twice or not zero", len(seen))
		}
		seen[w] = true
	}
}
