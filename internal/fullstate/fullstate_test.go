package fullstate_test

import (
	"math/rand"
	"testing"

	"repro/internal/fullstate"
	"repro/internal/matchtest"
	"repro/internal/ops5"
	"repro/internal/treat"
)

func runScript(t *testing.T, prods []*ops5.Production, script *matchtest.Script) *fullstate.Matcher {
	t.Helper()
	tr := matchtest.NewTracker()
	m, err := fullstate.New(prods, tr)
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
	for seed := int64(0); seed < 15; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prods := matchtest.RandomProgram(rng, params)
		script := matchtest.RandomScript(rng, params, 25, 4)
		runScript(t, prods, script)
	}
}

func TestRandomizedCrossCheckNegation(t *testing.T) {
	params := matchtest.DefaultGenParams()
	params.NegProb = 0.5
	params.MaxCEs = 4
	for seed := int64(400); seed < 410; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prods := matchtest.RandomProgram(rng, params)
		script := matchtest.RandomScript(rng, params, 20, 3)
		runScript(t, prods, script)
	}
}

func TestDeferredConsistencyCornerCase(t *testing.T) {
	// CE1 binds <x>; CE2 and CE3 test it with predicates. The tuple
	// {CE2, CE3} alone has no binder for <x>, so its consistency must
	// be deferred or the full instantiation is never built when the
	// CE1 WME arrives last.
	src := `
(p pred-chain
    (base ^a <x>)
    (probe ^b > <x>)
    (probe ^c < <x>)
  -->
    (remove 1))
`
	p, err := ops5.ParseProduction(src)
	if err != nil {
		t.Fatal(err)
	}
	tr := matchtest.NewTracker()
	m, err := fullstate.New([]*ops5.Production{p}, tr)
	if err != nil {
		t.Fatal(err)
	}

	probe := ops5.NewWME("probe", "b", 9, "c", 1)
	probe.TimeTag = 1
	base := ops5.NewWME("base", "a", 5)
	base.TimeTag = 2
	// The probes arrive before the binder.
	m.Apply([]ops5.Change{{Kind: ops5.Insert, WME: probe}})
	m.Apply([]ops5.Change{{Kind: ops5.Insert, WME: base}})
	if got := len(tr.Keys()); got != 1 {
		t.Fatalf("conflict set size = %d, want 1 (binder arrived last)", got)
	}
	m.Apply([]ops5.Change{{Kind: ops5.Delete, WME: base}})
	if got := len(tr.Keys()); got != 0 {
		t.Fatalf("after binder delete, size = %d, want 0", got)
	}
}

func TestStateLargerThanTREAT(t *testing.T) {
	// §3.2: the full-state scheme stores strictly more than TREAT on
	// join-heavy workloads (all CE combinations vs alpha memories only).
	src := `
(p join3
    (a ^v <x>)
    (b ^v <x>)
    (c ^v <x>)
  -->
    (remove 1))
`
	p, err := ops5.ParseProduction(src)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := fullstate.New([]*ops5.Production{p}, matchtest.NewTracker())
	if err != nil {
		t.Fatal(err)
	}
	tm, err := treat.New([]*ops5.Production{p}, matchtest.NewTracker())
	if err != nil {
		t.Fatal(err)
	}
	var batch []ops5.Change
	tag := 0
	for _, class := range []string{"a", "b", "c"} {
		for v := 0; v < 4; v++ {
			tag++
			w := ops5.NewWME(class, "v", v)
			w.TimeTag = tag
			batch = append(batch, ops5.Change{Kind: ops5.Insert, WME: w})
		}
	}
	fs.Apply(batch)
	tm.Apply(batch)
	// TREAT stores 12 alpha entries. Full state stores those plus all
	// pairwise and triple combinations: strictly more.
	if fs.StateSize() <= 12 {
		t.Errorf("full state size = %d, want > 12 (TREAT's alpha-only state)", fs.StateSize())
	}
	if fs.Stats.TuplesCreated <= 12 {
		t.Errorf("tuples created = %d, want > 12", fs.Stats.TuplesCreated)
	}
}

func TestTooManyCEsRejected(t *testing.T) {
	lhs := make([]*ops5.CondElement, 17)
	for i := range lhs {
		lhs[i] = &ops5.CondElement{Class: "c"}
	}
	p := &ops5.Production{Name: "huge", LHS: lhs,
		RHS: []*ops5.Action{{Kind: ops5.ActHalt}}}
	if _, err := fullstate.New([]*ops5.Production{p}, matchtest.NewTracker()); err == nil {
		t.Error("expected rejection of 17 positive CEs")
	}
}
