package prete_test

import (
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/matchtest"
	"repro/internal/ops5"
	"repro/internal/prete"
	"repro/internal/rete"
)

// TestMain raises GOMAXPROCS to at least 8 before any matcher is built.
// A matcher builds at most GOMAXPROCS lanes and the lane pool holds
// GOMAXPROCS−1 helpers, both fixed when they are made, so on a two-CPU
// machine every test here would otherwise run two lanes at most: the 4-,
// 8- and 16-worker cases would not claim seeds or cancel across the
// lane counts they name.
func TestMain(m *testing.M) {
	runtime.GOMAXPROCS(max(8, runtime.GOMAXPROCS(0)))
	os.Exit(m.Run())
}

// sampled is a matcher that records the process's goroutine count after
// every batch.
type sampled struct {
	*prete.Matcher
	sample func()
}

func (s sampled) Apply(changes []ops5.Change) {
	s.Matcher.Apply(changes)
	s.sample()
}

// TestMatchersShareOneLanePool runs 32 eight-lane matchers at once, each
// replaying one script on its own goroutine with the bypass off, so every
// batch offers its lanes to the pool. Each must leave the conflict set
// serial Rete leaves after every batch, and since a matcher owns no
// goroutine the process never holds more than the 32 callers plus the
// one pool's GOMAXPROCS−1 helpers — during the run or after it.
func TestMatchersShareOneLanePool(t *testing.T) {
	const matchers = 32
	params := matchtest.FanOutGenParams(8)
	params.Productions = 16
	rng := rand.New(rand.NewSource(900))
	prods := matchtest.RandomProgram(rng, params)
	script := matchtest.RandomScript(rng, params, 16, 24)

	net, err := rete.Compile(prods)
	if err != nil {
		t.Fatal(err)
	}
	tr := matchtest.NewTracker()
	net.OnInsert, net.OnRemove = tr.Insert, tr.Remove
	want := matchtest.ReplayKeys(net, tr, script)

	base := runtime.NumGoroutine()
	limit := base + matchers + runtime.GOMAXPROCS(0) - 1
	var peak atomic.Int64
	sample := func() {
		n := int64(runtime.NumGoroutine())
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
	}
	got := make([][][]string, matchers)
	var wg sync.WaitGroup
	for i := range matchers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, err := prete.NewWithConfig(prods, prete.Config{Workers: 8, SerialThreshold: -1})
			if err != nil {
				t.Error(err)
				return
			}
			tr := matchtest.NewTracker()
			m.OnInsert, m.OnRemove = tr.Insert, tr.Remove
			got[i] = matchtest.ReplayKeys(sampled{m, sample}, tr, script)
		}()
	}
	wg.Wait()
	sample()
	for i := range got {
		for b := range want {
			if d := matchtest.Diff(want[b], got[i][b]); d != "" {
				t.Fatalf("matcher %d batch %d: diverges from rete:\n%s", i, b, d)
			}
		}
	}
	if p := peak.Load(); p > int64(limit) {
		t.Errorf("%d goroutines, want at most %d (%d before, %d callers, %d pool helpers)",
			p, limit, base, matchers, runtime.GOMAXPROCS(0)-1)
	}
}
