package prete

// This file is the software stand-in for the PSM's hardware task
// scheduler (§5). The paper attributes much of the 1.93x "lost factor"
// between nominal and true speedup (§6) to scheduling and
// synchronisation overhead, and argues parallel Rete only pays off when
// dispatching one node activation costs about one bus cycle. So
// dispatch here hands out coarse tasks and nothing else: a seed — one
// WM change's right activations of up to seedGrain alpha memories —
// is the only unit a lane takes, and every activation it causes runs
// depth-first on that lane, however deep the chain, while its inputs
// are cache-hot.
//
// The paper's machine has one pool of processors that every activation
// of every production competes for. So does this process: one pool of
// GOMAXPROCS−1 helper goroutines (lanePool) serves every matcher, and a
// matcher owns no goroutine of its own.
//
//   - Lane 0 is Apply's caller. Lanes 1… are offered to the pool with a
//     non-blocking send, so only a helper idle at that instant takes
//     one and a busy pool is never waited for; with no idle helper the
//     caller runs the batch alone. Each borrowed lane charges its
//     hand-off-to-entry gap to the spawn phase.
//   - A batch's seeds stay in one list that the lanes claim from
//     through a shared cursor (claimSeed): nothing is pushed, and a lane
//     that finishes early simply claims more.
//   - A lane with no seed left returns. The per-batch WaitGroup over
//     the borrowed helpers is the only barrier; a lane's wait there is
//     the park phase.
//
// A lane counts its work (executed activations, comparisons,
// cancellations, phase time, the per-node profile) in plain fields only
// it writes; Apply folds every lane's books into the matcher's totals
// after the batch barrier, so the activation path shares no counter
// cache line between lanes. With the wakeups/inline-batches counters
// they make the paper's scheduling-overhead decomposition a measurable
// series (exported via Stats, engine.MatchStats and psmd's /metrics).

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/rete"
)

// laneBooks is one lane's accounting: the activation count, the
// matcher's comparison and cancellation counts, the phase clock and the
// task-size histogram (loss.go). A worker writes its own books without
// synchronisation during a batch; Matcher.lanes holds the totals Apply
// folds them into at the barrier.
type laneBooks struct {
	executed      int64 // activations run
	comparisons   int64 // (token, WME) pairs tested
	cancellations int64 // out-of-order insert/delete annihilations
	clock         phaseClock
	taskSizes     [numTaskBuckets]int64
}

// worker is one scheduler lane: its books and the owner-only scratch
// buffers that keep the activation hot path free of per-task
// allocations.
type worker struct {
	laneBooks
	// prof is this lane's share of the per-node profile, indexed like
	// Matcher.nodes.
	prof []rete.NodeProf

	// emits is the lane's stack of activation outputs in flight
	// (propagate); pending batches the worker's conflict-set deltas
	// until the flush merge. Both retain capacity across batches.
	emits   []emit
	pending []pendingDelta
	// scratch holds the token a delete names as a pair while runLeft
	// hashes its join key; it is never stored.
	scratch rete.Token
	// pool, cache, retired and dry are the lane's side of the token
	// pool (tokens.go).
	pool    *tokenPool
	cache   []*rete.Token
	retired []*rete.Token
	dry     bool

	// seedLo and seedHi bound the run of seeds this lane has claimed
	// and not yet run (claimSeed).
	seedLo, seedHi int
}

// foldInto moves the lane's books into the matcher's totals for the
// lane and the per-node profile, leaving the lane zeroed. Apply calls
// it after the batch barrier, under Matcher.mu.
func (w *worker) foldInto(t *laneBooks, prof []rete.NodeProf) {
	if w.executed > 0 {
		for i := range w.prof {
			p := &w.prof[i]
			prof[i].Activations += p.Activations
			prof[i].TokensTested += p.TokensTested
			prof[i].PairsEmitted += p.PairsEmitted
			*p = rete.NodeProf{}
		}
	}
	t.executed += w.executed
	t.comparisons += w.comparisons
	t.cancellations += w.cancellations
	for p := range w.clock.ns {
		t.clock.ns[p] += w.clock.ns[p]
	}
	for b := range w.taskSizes {
		t.taskSizes[b] += w.taskSizes[b]
	}
	w.laneBooks = laneBooks{clock: phaseClock{last: w.clock.last}}
}

// scheduler owns the lanes of one Matcher. It persists across Apply
// batches so scratch buffers and counters are reused; the goroutines
// that run lanes 1… are the pool's, borrowed per batch.
type scheduler struct {
	workers []worker

	// seeds is the batch's seed list; Apply writes it before handing out
	// any lane and it is read-only until the barrier. nextSeed is the
	// claim cursor.
	seeds    []task
	nextSeed atomic.Int64

	// batchWG is the per-batch barrier over the borrowed helpers: one
	// Add per lane offered, Done when a helper leaves the lane's batch
	// loop (or at once for an offer no helper took).
	batchWG sync.WaitGroup

	// wakeups counts batches that borrowed at least one helper;
	// bypasses counts batches the caller ran alone.
	wakeups  atomic.Int64
	bypasses atomic.Int64
}

func newScheduler(workers, nodes int, pool *tokenPool) *scheduler {
	s := &scheduler{workers: make([]worker, workers)}
	for i := range s.workers {
		s.workers[i].prof = make([]rete.NodeProf, nodes)
		s.workers[i].pool = pool
	}
	return s
}

// lanePool is the process's one set of helper goroutines, GOMAXPROCS−1
// of them so that with the caller as lane 0 one batch can occupy every
// processor. The first multi-lane matcher starts it; it is never
// stopped. An idle helper blocks receiving on lanes.
var lanePool struct {
	once  sync.Once
	lanes chan laneJob
}

// laneJob hands lane wi of m's current batch to a helper; from is the
// instant the batch's hand-off began.
type laneJob struct {
	m    *Matcher
	wi   int
	from int64
}

// startLanePool starts the helpers once per process.
func startLanePool() {
	lanePool.once.Do(func() {
		lanePool.lanes = make(chan laneJob)
		for range runtime.GOMAXPROCS(0) - 1 {
			go func() {
				for j := range lanePool.lanes {
					j.m.runLane(j.wi, j.from)
				}
			}()
		}
	})
}

// borrow offers lanes 1… of the seeded batch to idle helpers, stopping
// at the first offer none takes, and returns how many were taken.
func (s *scheduler) borrow(m *Matcher, from int64) int {
	n := 0
	for wi := 1; wi < len(s.workers); wi++ {
		s.batchWG.Add(1)
		select {
		case lanePool.lanes <- laneJob{m, wi, from}:
			n++
		default:
			s.batchWG.Done()
			return n
		}
	}
	return n
}

// runLane runs lane wi of the current batch on a borrowed helper. The
// gap from the hand-off to the lane's entry is its spawn cost; the exit
// tail is charged to park so the lane's phase totals cover its whole
// time in the batch.
func (m *Matcher) runLane(wi int, from int64) {
	s := m.sched
	w := &s.workers[wi]
	w.clock.last = from
	w.clock.stamp(phaseSpawn)
	m.batchLoop(w)
	w.clock.stamp(phasePark)
	s.batchWG.Done()
}

// claimSeed takes worker w's next seed, claiming a fresh run of
// consecutive seeds from the shared cursor when the lane's last run is
// used up. Runs shrink as the list drains (a share of what is left,
// guided self-scheduling): long runs first keep neighbouring changes —
// which tend to carry the same join keys, hence the same stripes — on
// one lane instead of colliding on two, short runs at the end even out
// the finish.
func (s *scheduler) claimSeed(w *worker) (task, bool) {
	for w.seedLo == w.seedHi {
		cur := s.nextSeed.Load()
		left := int64(len(s.seeds)) - cur
		if left <= 0 {
			return task{}, false
		}
		n := max(1, left/int64(2*len(s.workers)))
		if s.nextSeed.CompareAndSwap(cur, cur+n) {
			w.seedLo, w.seedHi = int(cur), int(cur+n)
		}
	}
	w.seedLo++
	return s.seeds[w.seedLo-1], true
}
