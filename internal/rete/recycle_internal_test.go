package rete

import (
	"math/rand"
	"testing"

	"repro/internal/matchtest"
)

// TestTokensRecycledOnce replays random programs with negated condition
// elements and checks the ownership rule after every batch: the tokens
// the network built are exactly the tokens its owning memories store
// plus its free list, each of them once. A token freed by a memory that
// does not own it — a not-node's pass-through output — shows up twice.
func TestTokensRecycledOnce(t *testing.T) {
	params := matchtest.DefaultGenParams()
	params.NegProb = 0.5
	params.MaxCEs = 4
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n, err := Compile(matchtest.RandomProgram(rng, params))
		if err != nil {
			t.Fatal(err)
		}
		for bi, batch := range matchtest.RandomScript(rng, params, 24, 6).Batches {
			n.Apply(batch)
			seen := make(map[*Token]bool)
			hold := func(where string, tok *Token) {
				if seen[tok] {
					t.Fatalf("seed %d batch %d: token %v held twice (again in %s)", seed, bi, tok, where)
				}
				seen[tok] = true
			}
			for _, b := range n.Betas {
				if b.Owns {
					for _, tok := range n.betas[b.Index].items {
						hold("an owning memory", tok)
					}
				}
			}
			for _, tok := range n.free {
				hold("the free list", tok)
			}
			if len(seen) != n.built {
				t.Fatalf("seed %d batch %d: %d tokens built, %d in owning memories and the free list",
					seed, bi, n.built, len(seen))
			}
		}
		if n.Stats.Anomalies != 0 {
			t.Fatalf("seed %d: %d anomalies", seed, n.Stats.Anomalies)
		}
	}
}
