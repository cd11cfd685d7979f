package matchtest_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/matchtest"
	"repro/internal/naive"
	"repro/internal/ops5"
	"repro/internal/prete"
	"repro/internal/rete"
)

// The N-way matcher oracle: one change script runs through naive (the
// executable spec), the serial rete.Network, one-lane prete (what a
// rete session serves) and two-lane prete with the serial bypass on and
// off, and after every batch all of them must hold the same conflict set
// and have announced the same net delta.

// netSink is the sink of one oracle member: a Tracker for the conflict
// set, and the current batch's deltas counted per instantiation.
type netSink struct {
	tr  *matchtest.Tracker
	net map[string]int
	buf []byte
}

func newNetSink() *netSink {
	return &netSink{tr: matchtest.NewTracker(), net: map[string]int{}}
}

func (s *netSink) InsertMatch(p *ops5.Production, wmes []*ops5.WME) {
	s.tr.InsertMatch(p, wmes)
	s.buf = ops5.AppendKey(s.buf[:0], p, wmes)
	s.net[string(s.buf)]++
}

func (s *netSink) RemoveMatch(p *ops5.Production, wmes []*ops5.WME) {
	s.tr.RemoveMatch(p, wmes)
	s.buf = ops5.AppendKey(s.buf[:0], p, wmes)
	s.net[string(s.buf)]--
}

// take returns the batch's net delta in canonical order, one "+ key" or
// "- key" per instantiation whose count moved (a net move of more than
// one reads "±n key"), and starts the next batch.
func (s *netSink) take() []string {
	var out []string
	for k, n := range s.net {
		switch n {
		case 0:
		case 1:
			out = append(out, "+ "+k)
		case -1:
			out = append(out, "- "+k)
		default:
			out = append(out, fmt.Sprintf("%+d %s", n, k))
		}
	}
	clear(s.net)
	slices.Sort(out)
	return out
}

// oracleMember is one matcher of the oracle and the sink it reports to.
type oracleMember struct {
	name string
	m    engine.Matcher
	sink *netSink
}

// oracleMembers builds every member over prods, naive first: the others
// are compared with it.
func oracleMembers(t testing.TB, prods []*ops5.Production) []oracleMember {
	t.Helper()
	var ms []oracleMember
	add := func(name string, build func(*netSink) (engine.Matcher, error)) {
		s := newNetSink()
		m, err := build(s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ms = append(ms, oracleMember{name, m, s})
	}
	add("naive", func(s *netSink) (engine.Matcher, error) { return naive.New(prods, s) })
	add("rete.Network", func(s *netSink) (engine.Matcher, error) {
		net, err := rete.Compile(prods)
		if err == nil {
			net.Sink = s
		}
		return net, err
	})
	for _, c := range []struct {
		name string
		cfg  prete.Config
	}{
		{"prete one lane", prete.Config{Workers: 1}},
		{"prete two lanes", prete.Config{Workers: 2}},
		{"prete two lanes, no bypass", prete.Config{Workers: 2, SerialThreshold: -1}},
	} {
		add(c.name, func(s *netSink) (engine.Matcher, error) {
			m, err := prete.NewWithConfig(prods, c.cfg)
			if err == nil {
				m.Sink = s
			}
			return m, err
		})
	}
	return ms
}

// agree replays script through every member and fails at the first
// batch after which a member's conflict set or net delta differs from
// naive's.
func agree(t testing.TB, label string, prods []*ops5.Production, script *matchtest.Script) {
	t.Helper()
	ms := oracleMembers(t, prods)
	for bi, batch := range script.Batches {
		var wantKeys, wantDelta []string
		for i, o := range ms {
			o.m.Apply(batch)
			keys, delta := o.sink.tr.Keys(), o.sink.take()
			if i == 0 {
				wantKeys, wantDelta = keys, delta
				continue
			}
			if d := matchtest.Diff(wantKeys, keys); d != "" {
				t.Fatalf("%s batch %d (%d changes): %s's conflict set differs from naive's:\n%s", label, bi, len(batch), o.name, d)
			}
			if !slices.Equal(wantDelta, delta) {
				t.Fatalf("%s batch %d (%d changes): %s announced net delta\n  %q\nnaive's is\n  %q", label, bi, len(batch), o.name, delta, wantDelta)
			}
		}
	}
}

// scriptGen builds an oracle script batch by batch, tracking the live
// elements and the seeded activations (prete's bypass measure: the
// two-input nodes on the right-input lists of the alpha memories a
// change reaches) of the batch under construction.
type scriptGen struct {
	rng   *rand.Rand
	p     matchtest.GenParams
	prods []*ops5.Production
	plan  *rete.Plan
	tag   int
	live  []*ops5.WME
	batch []ops5.Change
	acts  int
	out   matchtest.Script
}

func (g *scriptGen) activations(w *ops5.WME) (n int) {
	for _, a := range g.plan.AppendAlphas(nil, w) {
		n += len(a.Succs)
	}
	return n
}

func (g *scriptGen) insert(w *ops5.WME) {
	g.tag++
	w.TimeTag = g.tag
	g.live = append(g.live, w)
	g.batch = append(g.batch, ops5.Change{Kind: ops5.Insert, WME: w})
	g.acts += g.activations(w)
}

// remove deletes live element i.
func (g *scriptGen) remove(i int) {
	w := g.live[i]
	g.live = slices.Delete(g.live, i, i+1)
	g.batch = append(g.batch, ops5.Change{Kind: ops5.Delete, WME: w})
	g.acts += g.activations(w)
}

// removeRandom deletes a random live element, one inserted in the batch
// under construction when fresh is set and there is one.
func (g *scriptGen) removeRandom(fresh bool) {
	if len(g.live) == 0 {
		return
	}
	lo := 0
	if n := g.insertedInBatch(); fresh && n > 0 {
		lo = len(g.live) - n
	}
	g.remove(lo + g.rng.Intn(len(g.live)-lo))
}

// insertedInBatch counts the live elements the current batch inserted
// (they are the last ones in g.live).
func (g *scriptGen) insertedInBatch() (n int) {
	for _, ch := range g.batch {
		if ch.Kind == ops5.Insert && slices.Contains(g.live, ch.WME) {
			n++
		}
	}
	return n
}

func (g *scriptGen) cut() {
	if len(g.batch) > 0 {
		g.out.Batches = append(g.out.Batches, g.batch)
	}
	g.batch, g.acts = nil, 0
}

// randomBatch is n random changes, a delete with probability pDel.
func (g *scriptGen) randomBatch(n int, pDel float64) {
	for range n {
		if len(g.live) > 0 && g.rng.Float64() < pDel {
			g.removeRandom(g.rng.Intn(3) == 0)
		} else {
			g.insert(matchtest.RandomWME(g.rng, g.p))
		}
	}
	g.cut()
}

// nearThreshold builds a batch of inserts and deletes (some of elements
// the batch itself inserted) whose seeded activations come to just
// under prete's serial bypass threshold, or, with over set, just at or
// above it.
func (g *scriptGen) nearThreshold(over bool) {
	const th = prete.SerialBypassThreshold
	for tries := 0; tries < 4000 && g.acts < th-1; tries++ {
		if len(g.live) > 0 && g.rng.Intn(3) == 0 {
			i := g.rng.Intn(len(g.live))
			if g.acts+g.activations(g.live[i]) < th {
				g.remove(i)
			}
			continue
		}
		w := matchtest.RandomWME(g.rng, g.p)
		if g.acts+g.activations(w) < th {
			g.insert(w)
		}
	}
	for tries := 0; over && tries < 4000 && g.acts < th; tries++ {
		if w := matchtest.RandomWME(g.rng, g.p); g.activations(w) > 0 {
			g.insert(w)
		}
	}
	g.cut()
}

// churn inserts n elements and deletes each of them again within the
// one batch, interleaved with deletes of older elements.
func (g *scriptGen) churn(n int) {
	for range n {
		g.insert(matchtest.RandomWME(g.rng, g.p))
		if g.rng.Intn(2) == 0 {
			g.removeRandom(true)
		}
		if g.rng.Intn(4) == 0 {
			g.removeRandom(false)
		}
	}
	for g.insertedInBatch() > 0 {
		g.removeRandom(true)
	}
	g.cut()
}

// retractClass deletes, in one batch, every live element of the class a
// production's first condition element reads, retracting whole join
// fan-outs, and then inserts a few new ones of that class.
func (g *scriptGen) retractClass() {
	class := g.prods[g.rng.Intn(len(g.prods))].LHS[0].Class
	for i := len(g.live) - 1; i >= 0; i-- {
		if g.live[i].Class() == class {
			g.remove(i)
		}
	}
	for range 3 {
		w := matchtest.RandomWME(g.rng, g.p)
		if w.Class() == class {
			g.insert(w)
		}
	}
	g.cut()
}

// blocker builds an element that passes ce's constant tests (and, by
// chance, its variable tests), for a negated ce to be blocked by.
func (g *scriptGen) blocker(ce *ops5.CondElement) *ops5.WME {
	var pairs []any
	for _, at := range ce.Tests {
		v := ops5.Num(float64(g.rng.Intn(g.p.Values)))
		switch t := at.Terms[0]; {
		case t.Kind == ops5.TermConst && t.Pred == ops5.PredEq:
			v = t.Val
		case t.Kind == ops5.TermDisj:
			v = t.Disj[g.rng.Intn(len(t.Disj))]
		}
		pairs = append(pairs, at.Attr, v)
	}
	return ops5.NewWME(ce.Class, pairs...)
}

// blockAndUnblock builds, for each negated condition element, a batch
// in which elements that block it are inserted and deleted again (a
// not-node blocked and unblocked within the batch), and a batch that
// deletes the live elements of its class while inserting new blockers.
func (g *scriptGen) blockAndUnblock() {
	for _, p := range g.prods {
		for _, ce := range p.LHS {
			if !ce.Negated {
				continue
			}
			for range 3 {
				g.insert(g.blocker(ce))
			}
			for range 4 {
				g.insert(matchtest.RandomWME(g.rng, g.p))
			}
			for g.insertedInBatch() > 0 {
				g.removeRandom(true)
			}
			g.cut()
			for i := len(g.live) - 1; i >= 0; i-- {
				if g.live[i].Class() == ce.Class && g.rng.Intn(2) == 0 {
					g.remove(i)
				}
			}
			for range 2 {
				g.insert(g.blocker(ce))
			}
			g.cut()
		}
	}
}

// oracleScript generates one oracle script for prods: batches of one
// and two changes, random batches, batches just under and just over
// prete's serial bypass threshold, same-batch churn, whole fan-outs
// retracted, negated condition elements blocked and unblocked within a
// batch, and finally every live element deleted.
func oracleScript(t testing.TB, rng *rand.Rand, p matchtest.GenParams, prods []*ops5.Production) *matchtest.Script {
	t.Helper()
	plan, err := rete.CompilePlan(prods)
	if err != nil {
		t.Fatal(err)
	}
	g := &scriptGen{rng: rng, p: p, prods: prods, plan: plan}
	g.randomBatch(1, 0)
	g.randomBatch(2, 0)
	for range 6 {
		g.randomBatch(1+rng.Intn(10), 0.3)
	}
	g.nearThreshold(false)
	g.nearThreshold(true)
	g.churn(12)
	g.retractClass()
	g.blockAndUnblock()
	g.nearThreshold(true)
	g.randomBatch(2, 0.5)
	g.nearThreshold(false)
	g.retractClass()
	for i := len(g.live) - 1; i >= 0; i-- {
		g.remove(i)
	}
	g.cut()
	return &g.out
}

// TestMatchersAgree runs the oracle over the default, sibling fan-out
// and equality-heavy shapes (kept to three condition elements, so that
// naive's brute force stays cheap).
func TestMatchersAgree(t *testing.T) {
	shapes := map[string]matchtest.GenParams{
		"default":      matchtest.DefaultGenParams(),
		"fan-out":      matchtest.FanOutGenParams(4),
		"index-stress": matchtest.IndexStressGenParams(),
	}
	for name, p := range shapes {
		p.MaxCEs = 3
		t.Run(name, func(t *testing.T) {
			for seed := int64(900); seed < 904; seed++ {
				rng := rand.New(rand.NewSource(seed))
				prods := matchtest.RandomProgram(rng, p)
				agree(t, fmt.Sprintf("seed %d", seed), prods, oracleScript(t, rng, p, prods))
			}
		})
	}
}

// FuzzMatchersAgree runs the oracle from fuzzed seeds and shapes: fanOut
// sets the sibling run length (0 and 1: none), negPct the percentage of
// negated condition elements.
func FuzzMatchersAgree(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(3), uint8(4), uint8(30))
	f.Add(int64(42), uint8(3), uint8(2), uint8(0), uint8(50))
	f.Add(int64(7), uint8(1), uint8(4), uint8(6), uint8(10))
	f.Fuzz(func(t *testing.T, seed int64, maxCEs, values, fanOut, negPct uint8) {
		p := matchtest.DefaultGenParams()
		p.MaxCEs = 1 + int(maxCEs)%3
		p.Values = 2 + int(values)%4
		p.FanOut = int(fanOut) % 7
		p.NegProb = float64(negPct%60) / 100
		rng := rand.New(rand.NewSource(seed))
		prods := matchtest.RandomProgram(rng, p)
		agree(t, fmt.Sprintf("seed %d", seed), prods, oracleScript(t, rng, p, prods))
	})
}
