package rete

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/matchtest"
	"repro/internal/ops5"
)

// TestTokensRecycledOnce replays random programs with negated condition
// elements and checks the ownership rule after every batch: the tokens
// the network's slab built are exactly the tokens its owning memories
// store plus its free list, each of them once, and no free-listed token
// holds a WME. A token freed by a memory that does not own it — a
// not-node's pass-through output — shows up twice.
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
				if w := heldWME(tok); w != nil {
					t.Fatalf("seed %d batch %d: free-listed token holds WME %d", seed, bi, w.TimeTag)
				}
			}
			if len(seen) != n.slab.Built() {
				t.Fatalf("seed %d batch %d: %d tokens built, %d in owning memories and the free list",
					seed, bi, n.slab.Built(), len(seen))
			}
		}
		if n.Stats.Anomalies != 0 {
			t.Fatalf("seed %d: %d anomalies", seed, n.Stats.Anomalies)
		}
	}
}

// heldWME returns a WME the token's storage still points at: its WMEs
// buffer up to capacity, or the inline array. nil means none.
func heldWME(tok *Token) *ops5.WME {
	for _, w := range append(tok.WMEs[:cap(tok.WMEs)], tok.arr[:]...) {
		if w != nil {
			return w
		}
	}
	return nil
}

// TestRecycledLongTokenHoldsNoWME builds tokens one WME longer than the
// inline array, from a recycled short token and from a fresh one, and
// checks that recycling each leaves no WME in its storage.
func TestRecycledLongTokenHoldsNoWME(t *testing.T) {
	var s TokenSlab
	base := &Token{}
	for tag := 1; tag <= len(base.arr); tag++ {
		next := s.New()
		base.ExtendInto(next, &ops5.WME{TimeTag: tag})
		base = next
	}
	recycled := s.New()
	(&Token{}).ExtendInto(recycled, &ops5.WME{TimeTag: 99})
	recycled.Recycle()
	for _, dst := range []*Token{recycled, s.New()} {
		base.ExtendInto(dst, &ops5.WME{TimeTag: 100})
		if len(dst.WMEs) != len(base.arr)+1 {
			t.Fatalf("built %v, want %d WMEs", dst, len(base.arr)+1)
		}
		if w := heldWME(dst.Recycle()); w != nil {
			t.Errorf("recycled token still holds WME %d", w.TimeTag)
		}
	}
}

// TestTokenSlabChunks builds N fresh tokens from a new slab and checks
// the allocations: chunks of 16 tokens, each next one twice the last, so
// at most ⌈log2(N/16)⌉+1 while chunks still double (N ≤ 496), and one
// more per 256 tokens after that.
func TestTokenSlabChunks(t *testing.T) {
	for _, n := range []int{0, 1, 16, 17, 48, 49, 100, 496, 497, 1000} {
		var s TokenSlab
		got := testing.AllocsPerRun(10, func() {
			s = TokenSlab{}
			for range n {
				s.New()
			}
		})
		bound := 0
		switch doubled := 496; { // 16+32+64+128+256, the doubling chunks
		case n > doubled:
			bound = 5 + (n-doubled+ops5.SlabMax-1)/ops5.SlabMax
		case n > 0:
			bound = max(0, int(math.Ceil(math.Log2(float64(n)/ops5.SlabFirst)))) + 1
		}
		if int(got) > bound {
			t.Errorf("%d tokens: %.0f allocations, want at most %d", n, got, bound)
		}
		if s.Built() != n {
			t.Errorf("%d tokens: slab counted %d", n, s.Built())
		}
	}
	var s TokenSlab
	seen := make(map[*Token]bool)
	for range 1000 {
		tok := s.New()
		if seen[tok] || len(tok.WMEs) != 0 || tok.id != 0 {
			t.Fatalf("token %d: handed out twice or not zero", len(seen))
		}
		seen[tok] = true
	}
}
