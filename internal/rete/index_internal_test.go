package rete

// Internal regression test for the hash-indexed memories: it reaches
// into the unexported bucket maps, which the black-box suite cannot.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/matchtest"
	"repro/internal/ops5"
)

// chainCounts returns each live bucket's chain length by key.
func chainCounts[E any](b *Buckets[E]) map[uint64]int {
	counts := make(map[uint64]int)
	for k, head := range b.heads {
		for i := head - 1; i >= 0; i = b.Next(i) {
			counts[k]++
		}
	}
	return counts
}

// bucketSnapshot renders every hash bucket in the network — alpha
// indexes, beta indexes, and not-node negation indexes — as
// "owner key=count" lines, sorted. Equal snapshots mean equal
// per-bucket populations everywhere. Indexes are built lazily at the
// linearProbeMin crossing, so an index may be unbuilt in one snapshot
// and built in the other; both render the same effective populations —
// actual buckets when built (cross-checked against the memory they
// index), populations derived from the memory when not.
func bucketSnapshot(t *testing.T, n *Network) string {
	t.Helper()
	var lines []string
	render := func(owner string, counts map[uint64]int) {
		for k, c := range counts {
			lines = append(lines, fmt.Sprintf("%s %#x=%d", owner, k, c))
		}
	}
	for _, am := range n.alphas {
		for ii, ix := range am.indexes {
			counts := make(map[uint64]int)
			if ix.buckets.Ready() {
				counts = chainCounts(&ix.buckets)
				total := 0
				for _, n := range counts {
					total += n
				}
				if total != len(am.Items) {
					t.Errorf("alpha%d.%d: %d bucketed items, memory holds %d", am.ID, ii, total, len(am.Items))
				}
			} else {
				for _, w := range am.Items {
					counts[ix.key(w)]++
				}
			}
			render(fmt.Sprintf("alpha%d.%d", am.ID, ii), counts)
		}
	}
	for _, bm := range n.betas {
		for ii, ix := range bm.indexes {
			counts := make(map[uint64]int)
			if ix.buckets.Ready() {
				counts = chainCounts(&ix.buckets)
				total := 0
				for _, n := range counts {
					total += n
				}
				if total != len(bm.Tokens) {
					t.Errorf("beta%d.%d: %d bucketed tokens, memory holds %d", bm.ID, ii, total, len(bm.Tokens))
				}
			} else {
				for _, tok := range bm.Tokens {
					counts[ix.key(tok)]++
				}
			}
			render(fmt.Sprintf("beta%d.%d", bm.ID, ii), counts)
		}
	}
	for _, j := range n.joins {
		if j.negIndexed {
			lines = append(lines, fmt.Sprintf("join%d negCount=%d", j.ID, j.negCount))
			render(fmt.Sprintf("join%d", j.ID), chainCounts(&j.negIndex))
		} else {
			lines = append(lines, fmt.Sprintf("join%d negRecords=%d", j.ID, len(j.negRecords)))
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// countIndexes reports how many alpha/beta indexes exist, so the test
// can assert it exercised the indexed path at all.
func countIndexes(n *Network) int {
	total := 0
	for _, am := range n.alphas {
		total += len(am.indexes)
	}
	for _, bm := range n.betas {
		total += len(bm.indexes)
	}
	return total
}

// TestInsertDeleteRestoresBuckets is the hash-index counterpart of
// TestInsertDeleteRestoresMemories: inserting a batch of WMEs and
// deleting it again must restore every bucket of every index — alpha,
// beta, and negation — to exactly its previous population, leaving no
// empty-but-present buckets and no strays.
func TestInsertDeleteRestoresBuckets(t *testing.T) {
	params := matchtest.IndexStressGenParams()
	totalIndexes := 0
	for seed := int64(400); seed < 406; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prods := matchtest.RandomProgram(rng, params)
		n, err := Compile(prods)
		if err != nil {
			t.Fatal(err)
		}
		n.OnInsert = func(*ops5.Instantiation) {}
		n.OnRemove = func(*ops5.Instantiation) {}

		var wmes []*ops5.WME
		for i := 0; i < 40; i++ {
			w := matchtest.RandomWME(rng, params)
			w.TimeTag = i + 1
			wmes = append(wmes, w)
		}

		// Establish a baseline population, snapshot, then churn.
		base := wmes[:20]
		churn := wmes[20:]
		for _, w := range base {
			n.Apply([]ops5.Change{{Kind: ops5.Insert, WME: w}})
		}
		before := bucketSnapshot(t, n)

		for _, w := range churn {
			n.Apply([]ops5.Change{{Kind: ops5.Insert, WME: w}})
		}
		during := bucketSnapshot(t, n)
		for i := len(churn) - 1; i >= 0; i-- {
			n.Apply([]ops5.Change{{Kind: ops5.Delete, WME: churn[i]}})
		}

		after := bucketSnapshot(t, n)
		if before != after {
			t.Errorf("seed %d: buckets not restored after insert+delete:\nbefore:\n%s\nafter:\n%s",
				seed, before, after)
		}
		totalIndexes += countIndexes(n)
		if during == before {
			t.Logf("seed %d: churn batch did not change any bucket (weak seed)", seed)
		}
		if n.Stats.Anomalies != 0 {
			t.Errorf("seed %d: anomalies = %d", seed, n.Stats.Anomalies)
		}
	}
	if totalIndexes == 0 {
		t.Error("no seed built any index; test exercised nothing")
	}
}
