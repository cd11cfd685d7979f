package prete_test

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/matchtest"
	"repro/internal/prete"
)

// TestIndexInfoConcurrentWithApply hammers the introspection surface
// (IndexInfo, Stats, NodeProfile) from probe goroutines while the main
// goroutine streams change batches through Apply. The -race build of
// this test is the contract that introspection takes stripe locks
// correctly and never reads matcher state unsynchronized mid-batch.
func TestIndexInfoConcurrentWithApply(t *testing.T) {
	params := matchtest.IndexStressGenParams()
	rng := rand.New(rand.NewSource(424242))
	prods := matchtest.RandomProgram(rng, params)
	script := matchtest.RandomScript(rng, params, 40, 10)

	m, err := prete.NewWithConfig(prods, prete.Config{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Conflict-set callbacks fire on the Apply caller's goroutine (at
	// flush), so the tracker needs no extra locking here.
	tr := matchtest.NewTracker()
	m.Sink = tr

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				info := m.IndexInfo()
				if info.Buckets < 0 {
					t.Error("negative bucket count")
					return
				}
				_ = m.Stats()
				_ = m.NodeProfile()
			}
		}()
	}
	for _, batch := range script.Batches {
		m.Apply(batch)
	}
	close(stop)
	wg.Wait()

	// A final probe after the run must see settled totals.
	info := m.IndexInfo()
	if info.IndexedNodes+info.FallbackNodes == 0 {
		t.Error("IndexInfo reports no two-input nodes after applying a full script")
	}
	_ = tr.Keys() // panics on negative/duplicate counts
}
