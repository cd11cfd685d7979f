// Package matchtest provides randomized program generation and a
// cross-checking harness used to verify that every matcher in this
// repository (serial Rete, parallel Rete, naive, TREAT, full-state)
// computes identical conflict sets. It is a test-support package, and
// the one place that builds the two §3.2 analysis baselines psmd does
// not serve, TREAT and Oflazer's full-state scheme (NewBaseline).
package matchtest

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/conflict"
	"repro/internal/engine"
	"repro/internal/fullstate"
	"repro/internal/ops5"
	"repro/internal/treat"
	"repro/internal/wm"
)

// GenParams controls random program generation.
type GenParams struct {
	Productions int
	MaxCEs      int     // per production, >= 1
	NegProb     float64 // probability a non-first CE is negated
	Classes     int
	Attrs       int
	Values      int // numeric constants 0..Values-1
	Vars        int // variable pool size
	VarProb     float64
	DisjProb    float64
	PredProb    float64 // probability a bound-variable reuse is a predicate test
	// FanOut > 1 generates the productions in runs of FanOut siblings
	// that share their first CE and have at least one more: one beta
	// memory read by many two-input nodes, with equal, differing and
	// absent equality keys and negated readers among them — the shape
	// whose left memory the parallel matcher shares between nodes.
	FanOut int
}

// DefaultGenParams returns parameters that exercise most language
// features while keeping brute-force matching tractable.
func DefaultGenParams() GenParams {
	return GenParams{
		Productions: 8,
		MaxCEs:      3,
		NegProb:     0.25,
		Classes:     4,
		Attrs:       3,
		Values:      4,
		Vars:        3,
		VarProb:     0.4,
		DisjProb:    0.1,
		PredProb:    0.3,
	}
}

// FanOutGenParams returns IndexStressGenParams with the productions in
// sibling runs of fanOut (see GenParams.FanOut).
func FanOutGenParams(fanOut int) GenParams {
	p := IndexStressGenParams()
	p.FanOut = fanOut
	return p
}

// IndexStressGenParams returns parameters tuned to exercise the
// hash-indexed join memories: deep productions with many equality
// variable joins (the indexed path), frequent predicate tests on bound
// variables (residual tests the index must not skip), and enough
// negation to cover indexed not-nodes, over a small value pool so
// buckets grow multi-element.
func IndexStressGenParams() GenParams {
	p := DefaultGenParams()
	p.MaxCEs = 4
	p.NegProb = 0.3
	p.VarProb = 0.65
	p.PredProb = 0.35
	p.Vars = 4
	p.Values = 5
	return p
}

func class(i int) string { return fmt.Sprintf("c%d", i) }
func attr(i int) string  { return fmt.Sprintf("a%d", i) }
func varName(i int) string {
	return fmt.Sprintf("v%d", i)
}

// RandomProgram generates a valid random production set.
func RandomProgram(rng *rand.Rand, p GenParams) []*ops5.Production {
	prods := make([]*ops5.Production, 0, p.Productions)
	var head *ops5.CondElement
	for i := 0; i < p.Productions; i++ {
		if p.FanOut > 1 && i%p.FanOut == 0 {
			head = fanOutHead(rng, p)
		}
		prod := randomProduction(rng, p, fmt.Sprintf("p%d", i), head)
		prod.Order = i
		prods = append(prods, prod)
	}
	return prods
}

// fanOutHead builds the first CE a run of sibling productions shares:
// it binds v0 on a0 always and further variables on further attributes
// at random, so the siblings' later CEs can join on equal, different or
// no equality keys.
func fanOutHead(rng *rand.Rand, p GenParams) *ops5.CondElement {
	el := &ops5.CondElement{Class: class(rng.Intn(p.Classes))}
	for i := 0; i < min(p.Attrs, p.Vars); i++ {
		if i == 0 || rng.Float64() < 0.5 {
			el.Tests = append(el.Tests, ops5.AttrTest{Attr: attr(i),
				Terms: []ops5.Term{{Kind: ops5.TermVar, Pred: ops5.PredEq, Var: varName(i)}}})
		}
	}
	return el
}

// randomProduction generates one production; a non-nil head becomes (a
// copy of) its first CE and is followed by at least one more.
func randomProduction(rng *rand.Rand, p GenParams, name string, head *ops5.CondElement) *ops5.Production {
	nCE := 1 + rng.Intn(p.MaxCEs)
	prod := &ops5.Production{Name: name}
	bound := map[string]bool{} // vars bound by earlier positive CEs
	if head != nil {
		nCE = max(nCE, 2)
		first := *head
		prod.LHS = append(prod.LHS, &first)
		bound = head.Variables()
	}
	for ce := len(prod.LHS); ce < nCE; ce++ {
		negated := ce > 0 && rng.Float64() < p.NegProb
		el := &ops5.CondElement{Negated: negated, Class: class(rng.Intn(p.Classes))}
		nTests := 1 + rng.Intn(p.Attrs)
		usedAttr := map[int]bool{}
		localBound := map[string]bool{}
		for t := 0; t < nTests; t++ {
			ai := rng.Intn(p.Attrs)
			if usedAttr[ai] {
				continue
			}
			usedAttr[ai] = true
			at := ops5.AttrTest{Attr: attr(ai)}
			switch {
			case rng.Float64() < p.VarProb:
				v := varName(rng.Intn(p.Vars))
				if bound[v] || localBound[v] {
					if rng.Float64() < p.PredProb {
						preds := []ops5.Predicate{ops5.PredNe, ops5.PredLt, ops5.PredGt, ops5.PredLe, ops5.PredGe}
						at.Terms = []ops5.Term{{Kind: ops5.TermVar, Pred: preds[rng.Intn(len(preds))], Var: v}}
					} else {
						at.Terms = []ops5.Term{{Kind: ops5.TermVar, Pred: ops5.PredEq, Var: v}}
					}
				} else {
					at.Terms = []ops5.Term{{Kind: ops5.TermVar, Pred: ops5.PredEq, Var: v}}
					localBound[v] = true
				}
			case rng.Float64() < p.DisjProb:
				n := 2 + rng.Intn(2)
				var vals []ops5.Value
				for k := 0; k < n; k++ {
					vals = append(vals, ops5.Num(float64(rng.Intn(p.Values))))
				}
				at.Terms = []ops5.Term{{Kind: ops5.TermDisj, Disj: vals}}
			default:
				pred := ops5.PredEq
				if rng.Float64() < 0.3 {
					preds := []ops5.Predicate{ops5.PredNe, ops5.PredLt, ops5.PredGt}
					pred = preds[rng.Intn(len(preds))]
				}
				at.Terms = []ops5.Term{{Kind: ops5.TermConst, Pred: pred, Val: ops5.Num(float64(rng.Intn(p.Values)))}}
			}
			el.Tests = append(el.Tests, at)
		}
		if !negated {
			for v := range localBound {
				bound[v] = true
			}
		}
		prod.LHS = append(prod.LHS, el)
	}
	prod.RHS = []*ops5.Action{{
		Kind: ops5.ActMake, Class: "out",
		Pairs: []ops5.RHSPair{{Attr: "r", Term: ops5.RHSTerm{Val: ops5.Num(1)}}},
	}}
	if err := prod.Validate(); err != nil {
		panic(fmt.Sprintf("matchtest: generated invalid production: %v\n%s", err, prod))
	}
	return prod
}

// RandomWME generates a WME over the same vocabulary (no time tag).
func RandomWME(rng *rand.Rand, p GenParams) *ops5.WME {
	n := 1 + rng.Intn(p.Attrs)
	pairs := make([]any, 0, 2*n)
	for i := 0; i < n; i++ {
		pairs = append(pairs, attr(rng.Intn(p.Attrs)), ops5.Num(float64(rng.Intn(p.Values))))
	}
	return ops5.NewWME(class(rng.Intn(p.Classes)), pairs...)
}

// Tracker is a conflict-set recorder: the ops5.MatchSink a matcher
// under test reports to. It keys each match as ops5.AppendKey does and
// keeps counted multiset semantics so out-of-order parallel deltas
// settle.
type Tracker struct {
	counts map[string]int
	buf    []byte
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker {
	return &Tracker{counts: map[string]int{}}
}

// InsertMatch records a conflict-set insertion.
func (t *Tracker) InsertMatch(p *ops5.Production, wmes []*ops5.WME) {
	t.buf = ops5.AppendKey(t.buf[:0], p, wmes)
	t.counts[string(t.buf)]++
}

// RemoveMatch records a conflict-set removal.
func (t *Tracker) RemoveMatch(p *ops5.Production, wmes []*ops5.WME) {
	t.buf = ops5.AppendKey(t.buf[:0], p, wmes)
	k := string(t.buf)
	if t.counts[k]--; t.counts[k] == 0 {
		delete(t.counts, k)
	}
}

// Keys returns the sorted keys of present instantiations. It panics on
// negative counts (more removals than insertions), which indicates a
// matcher bug.
func (t *Tracker) Keys() []string {
	keys := make([]string, 0, len(t.counts))
	for k, c := range t.counts {
		if c < 0 {
			panic(fmt.Sprintf("matchtest: negative count %d for %s", c, k))
		}
		if c > 1 {
			panic(fmt.Sprintf("matchtest: duplicate instantiation %s (count %d)", k, c))
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Script is a reproducible sequence of WM change batches.
type Script struct {
	Batches [][]ops5.Change
}

// RandomScript builds a change script: each batch contains 1..maxBatch
// changes; deletions pick uniformly among live elements. Time tags are
// assigned here so every matcher sees identical batches.
func RandomScript(rng *rand.Rand, p GenParams, batches, maxBatch int) *Script {
	s := &Script{}
	nextTag := 1
	live := map[int]*ops5.WME{}
	for b := 0; b < batches; b++ {
		n := 1 + rng.Intn(maxBatch)
		var batch []ops5.Change
		for i := 0; i < n; i++ {
			if len(live) > 0 && rng.Float64() < 0.35 {
				tags := make([]int, 0, len(live))
				for tag := range live {
					tags = append(tags, tag)
				}
				sort.Ints(tags)
				tag := tags[rng.Intn(len(tags))]
				batch = append(batch, ops5.Change{Kind: ops5.Delete, WME: live[tag]})
				delete(live, tag)
			} else {
				w := RandomWME(rng, p)
				w.TimeTag = nextTag
				nextTag++
				live[w.TimeTag] = w
				batch = append(batch, ops5.Change{Kind: ops5.Insert, WME: w})
			}
		}
		s.Batches = append(s.Batches, batch)
	}
	return s
}

// NewBaseline builds an engine over prog whose matcher is the §3.2
// baseline named "treat" or "full-state", resolving conflicts by
// strategy, with prog's initial working memory loaded. It is the
// baselines' counterpart of core.NewSystemFromProgram, which serves only
// the other three matchers.
func NewBaseline(name string, prog *ops5.Program, strategy conflict.Strategy) (*engine.Engine, error) {
	cs := conflict.NewSet(strategy)
	var m engine.Matcher
	var err error
	switch name {
	case "treat":
		m, err = treat.New(prog.Productions, cs)
	case "full-state":
		m, err = fullstate.New(prog.Productions, cs)
	default:
		err = fmt.Errorf("matchtest: unknown baseline %q (treat|full-state)", name)
	}
	if err != nil {
		return nil, err
	}
	e := engine.New(wm.New(), cs, m)
	e.Load(prog.InitialWM)
	return e, nil
}

// ReplayKeys drives a matcher through a script and snapshots the
// tracker's sorted conflict-set keys after every batch. The matcher
// must already report to tr. Two matchers replaying the same script
// must produce identical snapshot sequences — the differential property
// the cross-matcher tests assert.
func ReplayKeys(m engine.Matcher, tr *Tracker, s *Script) [][]string {
	out := make([][]string, 0, len(s.Batches))
	for _, batch := range s.Batches {
		m.Apply(batch)
		out = append(out, tr.Keys())
	}
	return out
}

// BruteForceKeys computes the reference conflict set for a WM snapshot.
func BruteForceKeys(prods []*ops5.Production, wmes []*ops5.WME) []string {
	var keys []string
	for _, p := range prods {
		for _, inst := range ops5.SatisfyBruteForce(p, wmes) {
			keys = append(keys, inst.Key())
		}
	}
	sort.Strings(keys)
	return keys
}

// Diff formats the difference between two sorted key sets, for test
// failure messages.
func Diff(want, got []string) string {
	ws, gs := map[string]bool{}, map[string]bool{}
	for _, k := range want {
		ws[k] = true
	}
	for _, k := range got {
		gs[k] = true
	}
	out := ""
	for _, k := range want {
		if !gs[k] {
			out += fmt.Sprintf("  missing: %s\n", k)
		}
	}
	for _, k := range got {
		if !ws[k] {
			out += fmt.Sprintf("  extra:   %s\n", k)
		}
	}
	return out
}
