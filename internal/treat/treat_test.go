package treat_test

import (
	"math/rand"
	"testing"

	"repro/internal/matchtest"
	"repro/internal/ops5"
	"repro/internal/treat"
)

func runScript(t *testing.T, prods []*ops5.Production, script *matchtest.Script) *treat.Matcher {
	t.Helper()
	tr := matchtest.NewTracker()
	m, err := treat.New(prods, tr)
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
		got := tr.Keys()
		if d := matchtest.Diff(want, got); d != "" {
			t.Fatalf("batch %d: conflict set mismatch:\n%s", bi, d)
		}
	}
	return m
}

func TestRandomizedCrossCheck(t *testing.T) {
	params := matchtest.DefaultGenParams()
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prods := matchtest.RandomProgram(rng, params)
		script := matchtest.RandomScript(rng, params, 25, 4)
		runScript(t, prods, script)
	}
}

func TestRandomizedCrossCheckNegation(t *testing.T) {
	params := matchtest.DefaultGenParams()
	params.NegProb = 0.5
	for seed := int64(50); seed < 62; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prods := matchtest.RandomProgram(rng, params)
		script := matchtest.RandomScript(rng, params, 20, 3)
		runScript(t, prods, script)
	}
}

// TestRandomizedCrossCheckIndexStress covers the indexed alpha-memory
// path: equality-join-heavy programs where seedJoin and recompute
// probe per-CE buckets, with predicate and negated joins mixed in,
// cross-checked against brute force after every batch.
func TestRandomizedCrossCheckIndexStress(t *testing.T) {
	params := matchtest.IndexStressGenParams()
	indexed := 0
	for seed := int64(300); seed < 318; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prods := matchtest.RandomProgram(rng, params)
		script := matchtest.RandomScript(rng, params, 25, 4)
		m := runScript(t, prods, script)
		indexed += treat.BucketedMemories(m)
	}
	if indexed == 0 {
		t.Error("index-stress programs produced no indexed CEs; generator drifted")
	}
}

func TestSeedJoinSameWMETwoCEs(t *testing.T) {
	p, err := ops5.ParseProduction(`(p pair (c ^a <x>) (c ^a <x>) --> (remove 1))`)
	if err != nil {
		t.Fatal(err)
	}
	tr := matchtest.NewTracker()
	m, err := treat.New([]*ops5.Production{p}, tr)
	if err != nil {
		t.Fatal(err)
	}

	w := ops5.NewWME("c", "a", 1)
	w.TimeTag = 1
	m.Apply([]ops5.Change{{Kind: ops5.Insert, WME: w}})
	if got := len(tr.Keys()); got != 1 {
		t.Fatalf("conflict set size = %d, want exactly 1 ([w w])", got)
	}
	m.Apply([]ops5.Change{{Kind: ops5.Delete, WME: w}})
	if got := len(tr.Keys()); got != 0 {
		t.Fatalf("after delete, size = %d, want 0", got)
	}
}

func TestStatsCountWork(t *testing.T) {
	p, err := ops5.ParseProduction(`(p j (a ^v <x>) (b ^v <x>) --> (remove 1))`)
	if err != nil {
		t.Fatal(err)
	}
	m, err := treat.New([]*ops5.Production{p}, matchtest.NewTracker())
	if err != nil {
		t.Fatal(err)
	}
	tag := 0
	mk := func(class string, v int) ops5.Change {
		tag++
		w := ops5.NewWME(class, "v", v)
		w.TimeTag = tag
		return ops5.Change{Kind: ops5.Insert, WME: w}
	}
	m.Apply([]ops5.Change{mk("a", 1), mk("b", 1), mk("b", 2)})
	if m.Stats.AlphaInserts != 3 {
		t.Errorf("alpha inserts = %d, want 3", m.Stats.AlphaInserts)
	}
	if m.Stats.ConflictInserts != 1 {
		t.Errorf("conflict inserts = %d, want 1", m.Stats.ConflictInserts)
	}
	if m.Stats.JoinTuplesTested == 0 {
		t.Error("join work not counted")
	}
}
