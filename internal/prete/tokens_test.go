package prete

import (
	"math/rand"
	"os"
	"strconv"
	"testing"

	"repro/internal/ops5"
)

// PoolChunk is poolChunk, for the black-box tests.
const PoolChunk = poolChunk

// dispatchBatches returns the bulk dispatch program and a script of
// batches over it: each asserts jobs×3 elements (a job, its part and its
// slot) and retracts what the batch eight before asserted, so the live
// state levels off after eight batches while tokens keep being built and
// retired.
func dispatchBatches(t *testing.T, batches, jobs int) ([]*ops5.Production, [][]ops5.Change) {
	t.Helper()
	src, err := os.ReadFile("../../benchmark/rules/dispatch.ops")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ops5.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	pick := func(prefix string, n int) string { return prefix + strconv.Itoa(rng.Intn(n)) }
	tag := 0
	script := make([][]ops5.Change, batches)
	for r := range script {
		assert := func(w *ops5.WME) {
			tag++
			w.TimeTag = tag
			script[r] = append(script[r], ops5.Change{Kind: ops5.Insert, WME: w})
		}
		for a := 0; a < jobs; a++ {
			job, station := r*jobs+a, pick("s", 10)
			assert(ops5.NewWME("job", "id", job, "station", station, "kind", pick("k", 5), "prio", 1+rng.Intn(9)))
			assert(ops5.NewWME("part", "job", job, "station", station, "type", pick("t", 6), "qty", 1+rng.Intn(20)))
			assert(ops5.NewWME("slot", "job", job, "station", station, "lane", pick("l", 4), "cap", 1+rng.Intn(20)))
		}
		if r >= 8 {
			for _, ch := range script[r-8][:3*jobs] {
				script[r] = append(script[r], ops5.Change{Kind: ops5.Delete, WME: ch.WME})
			}
		}
	}
	return prog.Productions, script
}

// heldTokens returns every token the matcher holds between batches: the
// tokens its left entries file, the tokens listed under them, and the
// tokens its right entries list (leaves among them).
func (m *Matcher) heldTokens() map[*token]bool {
	held := make(map[*token]bool)
	for _, g := range m.groups {
		for si := range g.stripes {
			b := &g.stripes[si].left
			for i := int32(0); i < b.Slots(); i++ {
				if e := b.At(i); e.tok != nil {
					held[e.tok] = true
					for c := e.tok.kids; c != nil; c = c.next {
						held[c] = true
					}
				}
			}
			for _, pn := range g.members {
				r := &pn.right[si]
				for i := int32(0); i < r.Slots(); i++ {
					for c := r.At(i).toks; c != nil; c = c.rnext {
						held[c] = true
					}
				}
			}
		}
	}
	return held
}

// TestTokenPoolBounded replays 400 two-lane batches of the dispatch
// program with the bypass off, so a token is often built on one lane and
// retired on the other. After every batch the free tokens — the pool
// plus any lane's cache — must hold no token twice and none a memory or
// a list holds, and number at most the high-water mark of held tokens
// plus the most tokens one batch built (and a refill chunk per lane).
// Free lists kept per lane grow without bound here: the lane that
// retires a token is seldom the one that next needs one.
func TestTokenPoolBounded(t *testing.T) {
	prods, script := dispatchBatches(t, 400, 8)
	m, err := NewWithConfig(prods, Config{Workers: 2, SerialThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Workers() != 2 {
		t.Fatalf("%d lanes, want 2", m.Workers())
	}
	built := func() int {
		w := m.Work()
		return int(w.Built[ops5.Insert] + w.Built[ops5.Delete])
	}
	peakLive, peakBuilt, peakFree := 0, 0, 0
	for bi, batch := range script {
		before := built()
		m.Apply(batch)
		peakBuilt = max(peakBuilt, built()-before)

		held := m.heldTokens()
		live := len(held)
		peakLive = max(peakLive, live)

		free := append([]*token(nil), m.pool.toks...)
		for i := range m.sched.workers {
			free = append(free, m.sched.workers[i].cache...)
		}
		seen := make(map[*token]bool, len(free))
		for _, tok := range free {
			if seen[tok] {
				t.Fatalf("batch %d: token %p free twice", bi, tok)
			}
			if held[tok] {
				t.Fatalf("batch %d: token %p free while a memory or a list holds it", bi, tok)
			}
			seen[tok] = true
		}
		peakFree = max(peakFree, len(free))
		if bound := peakLive + peakBuilt + 2*poolChunk; len(free) > bound {
			t.Fatalf("batch %d: %d free tokens, above %d (held tokens peaked at %d, one batch built at most %d)",
				bi, len(free), bound, peakLive, peakBuilt)
		}
	}
	t.Logf("free tokens peaked at %d; held tokens at %d, one batch's builds at %d", peakFree, peakLive, peakBuilt)
}
