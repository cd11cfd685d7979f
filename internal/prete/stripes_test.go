package prete

import (
	"runtime"
	"testing"

	"repro/internal/ops5"
)

// TestStripesFollowLanes pins the stripe count of every group: one for a
// matcher with one lane, however many workers it was asked for, and 16
// for a keyed group of a matcher with two lanes.
func TestStripesFollowLanes(t *testing.T) {
	p, err := ops5.ParseProduction("(p chain (a ^v <x>) (b ^v <x>) (c ^v <x>) (d ^w 1) --> (halt))")
	if err != nil {
		t.Fatal(err)
	}
	prods := []*ops5.Production{p}
	check := func(m *Matcher, lanes, keyed int) {
		t.Helper()
		if m.Workers() != lanes {
			t.Fatalf("%d lanes, want %d", m.Workers(), lanes)
		}
		seen := 0
		for gi, g := range m.groups {
			want := 1
			if g.leftHash != nil {
				seen++
				want = keyed
			}
			if len(g.stripes) != want {
				t.Errorf("%d lanes: group %d (keyed %v) has %d stripes, want %d", lanes, gi, g.leftHash != nil, len(g.stripes), want)
			}
			for _, pn := range g.members {
				if len(pn.right) != len(g.stripes) {
					t.Errorf("%d lanes: node %d has %d right tables for %d stripes", lanes, pn.idx, len(pn.right), len(g.stripes))
				}
			}
		}
		if seen == 0 {
			t.Fatal("no keyed group")
		}
	}

	m, err := NewWithConfig(prods, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	check(m, 1, 1)
	m, err = NewWithConfig(prods, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	check(m, 2, stripes)

	// Four workers asked for on one CPU make one lane, so one stripe.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	m, err = NewWithConfig(prods, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	check(m, 1, 1)
}
