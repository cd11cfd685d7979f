package naive_test

import (
	"math/rand"
	"testing"

	"repro/internal/matchtest"
	"repro/internal/naive"
	"repro/internal/ops5"
)

func TestRandomizedCrossCheck(t *testing.T) {
	params := matchtest.DefaultGenParams()
	params.Productions = 5
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prods := matchtest.RandomProgram(rng, params)
		script := matchtest.RandomScript(rng, params, 15, 3)

		tr := matchtest.NewTracker()
		m, err := naive.New(prods, tr)
		if err != nil {
			t.Fatalf("new: %v", err)
		}

		live := map[int]*ops5.WME{}
		for bi, batch := range script.Batches {
			for _, ch := range batch {
				if ch.Kind == ops5.Insert {
					live[ch.WME.TimeTag] = ch.WME
				} else {
					delete(live, ch.WME.TimeTag)
				}
			}
			m.Apply(batch)
			wmes := make([]*ops5.WME, 0, len(live))
			for _, w := range live {
				wmes = append(wmes, w)
			}
			want := matchtest.BruteForceKeys(prods, wmes)
			if d := matchtest.Diff(want, tr.Keys()); d != "" {
				t.Fatalf("seed %d batch %d: mismatch:\n%s", seed, bi, d)
			}
		}
	}
}

func TestWorkProportionalToWMSize(t *testing.T) {
	p, err := ops5.ParseProduction(`(p x (a ^v 1) --> (remove 1))`)
	if err != nil {
		t.Fatal(err)
	}
	m, err := naive.New([]*ops5.Production{p}, matchtest.NewTracker())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		w := ops5.NewWME("a", "v", i)
		w.TimeTag = i
		m.Apply([]ops5.Change{{Kind: ops5.Insert, WME: w}})
	}
	// Each Apply rematches the whole WM: 1+2+...+10 = 55 elements.
	if m.Stats.ElementsMatched != 55 {
		t.Errorf("elements matched = %d, want 55", m.Stats.ElementsMatched)
	}
	if m.Stats.Rematches != 10 {
		t.Errorf("rematches = %d, want 10", m.Stats.Rematches)
	}
}
