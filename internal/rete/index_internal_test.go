package rete

// Internal regression test for the hash-indexed memories: it reaches
// into the unexported bucket tables, which the black-box suite cannot.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/bucket"
	"repro/internal/matchtest"
	"repro/internal/ops5"
)

// chainCounts returns each live bucket's chain length by key.
func chainCounts[E any](b *bucket.Buckets[E]) map[uint64]int {
	counts := make(map[uint64]int)
	b.Chains(func(k uint64, n int) { counts[k] = n })
	return counts
}

// bucketSnapshot renders every memory's population and every hash
// bucket in the network — alpha indexes, beta indexes, and not-node
// negation indexes — as "owner key=count" lines, sorted. Equal
// snapshots mean equal per-memory and per-bucket populations
// everywhere.
func bucketSnapshot(t *testing.T, n *Network) string {
	t.Helper()
	var lines []string
	render := func(owner string, counts map[uint64]int) {
		for k, c := range counts {
			lines = append(lines, fmt.Sprintf("%s %#x=%d", owner, k, c))
		}
	}
	for _, a := range n.Alphas {
		am := &n.alphas[a.Index]
		lines = append(lines, fmt.Sprintf("alpha%d items=%d", a.ID, len(am.items)))
		for ii := range am.indexes {
			render(fmt.Sprintf("alpha%d.%d", a.ID, ii), indexCounts(t, &am.indexes[ii], am.items))
		}
	}
	for _, b := range n.Betas {
		bm := &n.betas[b.Index]
		lines = append(lines, fmt.Sprintf("beta%d tokens=%d", b.ID, len(bm.items)))
		for ii := range bm.indexes {
			render(fmt.Sprintf("beta%d.%d", b.ID, ii), indexCounts(t, &bm.indexes[ii], bm.items))
		}
	}
	for _, j := range n.Joins {
		st := &n.joins[j.Index]
		lines = append(lines, fmt.Sprintf("join%d negCount=%d", j.ID, st.negCount))
		render(fmt.Sprintf("join%d", j.ID), chainCounts(&st.negIndex))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// indexCounts returns an index's per-bucket populations, cross-checked
// against the memory it indexes.
func indexCounts[E comparable](t *testing.T, ix *index[E], items []E) map[uint64]int {
	t.Helper()
	counts := chainCounts(&ix.buckets)
	total := 0
	for _, n := range counts {
		total += n
	}
	if total != len(items) {
		t.Errorf("%d bucketed entries, memory holds %d", total, len(items))
	}
	return counts
}

// TestInsertDeleteRestoresBuckets is the hash-index counterpart of
// TestInsertDeleteRestoresMemories: inserting a batch of WMEs and
// deleting it again must restore every memory and every bucket of every
// index — alpha, beta, and negation — to exactly its previous
// population, leaving no empty-but-present buckets and no strays.
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
		n.Sink = matchtest.NewTracker()

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
		for i := range n.alphas {
			totalIndexes += len(n.alphas[i].indexes)
		}
		for i := range n.betas {
			totalIndexes += len(n.betas[i].indexes)
		}
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
