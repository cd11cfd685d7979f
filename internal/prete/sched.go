package prete

// This file is the software stand-in for the PSM's hardware task
// scheduler (§5). The paper attributes much of the 1.93x "lost factor"
// between nominal and true speedup (§6) to scheduling and
// synchronisation overhead, and argues parallel Rete only pays off when
// dispatching one node activation costs about one bus cycle. A single
// shared queue — the original design — serialises every push and pop on
// one mutex; per-batch goroutine spawning — the second design — charges
// a goroutine startup to every lane on every Apply, which PR 8's loss
// accounting measured at 64-76% of the processor budget. Both are
// exactly the overheads the paper warns about.
//
// The scheduler here keeps one bounded deque per worker, serviced by a
// pool of resident worker goroutines:
//
//   - Workers are long-lived: they are spawned once, on the first batch
//     big enough to parallelise, and then park between batches on an
//     epoch gate (gateMu/gateCond). Apply seeds the deques, publishes a
//     new epoch and broadcasts; the first lane to run charges the
//     broadcast-to-entry latency to the spawn phase — spawn collapses
//     from goroutine startup to wake latency — while late lanes charge
//     their CPU-queueing to park. A per-epoch WaitGroup is the
//     batch barrier. Close retires the pool; a closed matcher still
//     works, running every batch inline on the caller.
//   - A batch's seed tasks stay in one list that the lanes claim from
//     through a shared cursor (claimSeed): nothing is pushed while
//     seeding, and a lane that finishes early simply claims more.
//   - A worker pushes the activations it generates onto its own deque
//     tail and pops from the tail (LIFO), so a token's downstream
//     activations run depth-first on the producing worker while their
//     inputs are cache-hot. No lock is contended in steady state.
//   - A worker with an empty deque and no seed left steals the older
//     half of a random victim's deque from the head (steal-half, FIFO
//     end, at most stealGrain tasks) — the classic work-stealing split
//     that moves large, stale subtrees to idle workers while the victim
//     keeps its hot tail.
//   - Deque overflow spills to a shared overflow list; it is drained
//     after steals fail and before parking.
//   - Only when every deque and the overflow list drain does a worker
//     park on the in-batch condvar; pushers signal it only when
//     sleepers are registered, so the hot path pays one atomic load. An
//     outstanding-task count provides termination: the worker that
//     retires the last task broadcasts batch completion, and the lanes
//     return to the epoch gate.
//
// A lane counts its work (executed/stolen/parked, comparisons,
// cancellations, phase time, the per-node profile) in plain fields only
// it writes; Apply folds every lane's books into the matcher's totals
// after the batch barrier, so the activation path shares no counter
// cache line between lanes. With the pool's wakeups/inline-batches/
// resident counters they make the paper's scheduling-overhead
// decomposition a measurable series (exported via Stats,
// engine.MatchStats and psmd's /metrics).

import (
	"sync"
	"sync/atomic"

	"repro/internal/rete"
)

// deqCap bounds each worker-local deque. Tasks are small, so 256 slots
// keep a worker's window under a few KB while still letting steal-half
// move meaningful chunks of work.
const deqCap = 256

// wdeque is one worker's bounded ring deque. The owner pushes and pops
// at the tail; thieves take from the head. A mutex per deque is cheap
// here: the owner's lock is uncontended unless a thief is active, and
// activations do 50-100 instructions of work per lock acquisition.
type wdeque struct {
	mu   sync.Mutex
	buf  [deqCap]task
	head int // index of the oldest task (steal end)
	n    int // population
}

// pushTail adds a task at the tail, reporting false when full.
func (d *wdeque) pushTail(t task) bool {
	d.mu.Lock()
	if d.n == deqCap {
		d.mu.Unlock()
		return false
	}
	d.buf[(d.head+d.n)%deqCap] = t
	d.n++
	d.mu.Unlock()
	return true
}

// popTail removes the newest task (owner side, LIFO).
func (d *wdeque) popTail() (task, bool) {
	d.mu.Lock()
	if d.n == 0 {
		d.mu.Unlock()
		return task{}, false
	}
	d.n--
	i := (d.head + d.n) % deqCap
	t := d.buf[i]
	d.buf[i] = task{} // release token/WME references
	d.mu.Unlock()
	return t, true
}

// pushAll adds tasks at the tail under one lock acquisition and returns
// how many fitted.
func (d *wdeque) pushAll(ts []task) int {
	d.mu.Lock()
	k := min(len(ts), deqCap-d.n)
	for _, t := range ts[:k] {
		d.buf[(d.head+d.n)%deqCap] = t
		d.n++
	}
	d.mu.Unlock()
	return k
}

// stealHalf removes the older half of the deque (at least one task,
// from the head) into out, returning the count taken.
func (d *wdeque) stealHalf(out []task) int {
	d.mu.Lock()
	k := min((d.n+1)/2, len(out))
	for i := 0; i < k; i++ {
		out[i] = d.buf[d.head]
		d.buf[d.head] = task{}
		d.head = (d.head + 1) % deqCap
	}
	d.n -= k
	d.mu.Unlock()
	return k
}

// size reads the population under the deque lock (parking re-check).
func (d *wdeque) size() int {
	d.mu.Lock()
	n := d.n
	d.mu.Unlock()
	return n
}

// laneBooks is one lane's accounting: the scheduler counters, the
// matcher's comparison and cancellation counts, the phase clock and the
// task-size histogram (loss.go). A worker writes its own books without
// synchronisation during a batch; Matcher.lanes holds the totals Apply
// folds them into at the barrier.
type laneBooks struct {
	executed      int64 // activations run
	stolen        int64 // tasks taken from other lanes
	parked        int64 // waits on the in-batch condvar
	comparisons   int64 // (token, WME) pairs tested
	cancellations int64 // out-of-order insert/delete annihilations
	clock         phaseClock
	taskSizes     [numTaskBuckets]int64
}

// worker is one scheduler lane: its deque, its books, and the
// owner-only scratch buffers that keep the activation hot path free of
// per-task allocations.
type worker struct {
	dq wdeque

	laneBooks
	// prof is this lane's share of the per-node profile, indexed like
	// Matcher.nodes.
	prof []rete.NodeProf

	// emits holds one owner-only scratch buffer per inline depth for an
	// activation's outputs — inlined downstream activations recurse, so
	// each depth needs its own buffer; spawned collects the downstream
	// tasks of the task being run, until retire submits them; pending
	// batches the worker's conflict-set deltas until the flush merge.
	// All retain capacity across batches.
	emits   [maxInlineDepth + 1][]emit
	spawned []task
	pending []pendingDelta

	// seedLo and seedHi bound the run of seeds this lane has claimed
	// and not yet run (claimSeed).
	seedLo, seedHi int

	// rng drives victim selection (xorshift; seeded per worker).
	rng uint32
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
	t.stolen += w.stolen
	t.parked += w.parked
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

// nextRand steps the worker's xorshift32 generator.
func (w *worker) nextRand() uint32 {
	x := w.rng
	x ^= x << 13
	x ^= x >> 17
	x ^= x << 5
	w.rng = x
	return x
}

// scheduler owns the workers, the overflow list, the parking state and
// the resident-pool gate for one Matcher. It persists across Apply
// batches so deques, scratch buffers, counters — and now the worker
// goroutines themselves — are reused.
type scheduler struct {
	workers []worker
	steal   bool

	// seeds is the batch's seed tasks and solo whether the batch runs
	// inline on the caller; Apply writes both before the wake and they
	// are read-only until the barrier. nextSeed is the claim cursor.
	seeds    []task
	solo     bool
	nextSeed atomic.Int64

	// outstanding counts unretired tasks, claimed or not; the worker
	// that takes it to zero ends the batch. Only Apply (seeding) and
	// retire touch it.
	outstanding atomic.Int64

	overflow struct {
		mu    sync.Mutex
		items []task
	}

	// In-batch parking: a worker that finds no work registers in
	// sleepers and waits on cond; pushers signal only when sleepers > 0,
	// so pushes pay one atomic load when everyone is busy.
	parkMu   sync.Mutex
	cond     *sync.Cond
	sleepers atomic.Int32

	// Between-batch parking: the epoch gate. Apply publishes a new epoch
	// under gateMu and broadcasts gateCond; each resident worker waits
	// for an epoch it has not seen (or closed). started flips when the
	// pool is lazily spawned on the first non-bypassed batch; closed is
	// set once by close(). wakeNs is the publish instant — the lanes'
	// books for the batch open there (spawn for the first runner, park
	// for the rest; see firstRun).
	gateMu   sync.Mutex
	gateCond *sync.Cond
	epoch    int64
	wakeNs   int64
	started  bool
	closed   bool

	// batchWG is the per-epoch barrier: Add(lanes) before the epoch is
	// published, Done per lane at batch end, Wait in Apply. workerWG
	// tracks the resident goroutines themselves, for close().
	batchWG  sync.WaitGroup
	workerWG sync.WaitGroup

	// firstRun holds the newest epoch whose wake latency has been
	// claimed: the first lane to start running an epoch charges
	// [wakeNs, entry] to spawn — that is the pool's actual wake latency
	// — while the other lanes charge the same interval to park, since
	// they were runnable but waiting for a CPU their peers were using
	// (idle time, not dispatch cost).
	firstRun atomic.Int64

	// wakeups counts epoch broadcasts; bypasses counts batches run
	// inline on the caller; resident counts live pool goroutines.
	wakeups  atomic.Int64
	bypasses atomic.Int64
	resident atomic.Int32
}

func newScheduler(workers int, steal bool, nodes int) *scheduler {
	s := &scheduler{workers: make([]worker, workers), steal: steal}
	s.cond = sync.NewCond(&s.parkMu)
	s.gateCond = sync.NewCond(&s.gateMu)
	for i := range s.workers {
		s.workers[i].rng = uint32(i)*2654435761 + 1
		s.workers[i].prof = make([]rete.NodeProf, nodes)
	}
	return s
}

// wake publishes a new epoch at instant now and broadcasts the resident
// lanes awake, lazily spawning them on the first call. It returns false
// when the pool is closed — the caller then drains the already-seeded
// deques inline. On success the caller must wait on batchWG.
func (s *scheduler) wake(m *Matcher, now int64) bool {
	s.gateMu.Lock()
	if s.closed {
		s.gateMu.Unlock()
		return false
	}
	if !s.started {
		s.started = true
		for i := range s.workers {
			s.workerWG.Add(1)
			s.resident.Add(1)
			go m.residentLoop(i)
		}
	}
	s.batchWG.Add(len(s.workers))
	s.epoch++
	s.wakeNs = now
	s.gateCond.Broadcast()
	s.gateMu.Unlock()
	s.wakeups.Add(1)
	return true
}

// close retires the resident pool: lanes finish any published epoch,
// then exit. Idempotent; blocks until every lane is gone.
func (s *scheduler) close() {
	s.gateMu.Lock()
	if s.closed {
		s.gateMu.Unlock()
		return
	}
	s.closed = true
	s.gateCond.Broadcast()
	s.gateMu.Unlock()
	s.workerWG.Wait()
}

// residentLoop is one pool goroutine: park at the epoch gate, run the
// published batch, signal the barrier, repeat until closed. A pending
// epoch is always processed before exiting, so close() cannot strand a
// batch Apply is waiting on.
func (m *Matcher) residentLoop(wi int) {
	s := m.sched
	w := &s.workers[wi]
	defer s.workerWG.Done()
	defer s.resident.Add(-1)
	var seen int64
	for {
		s.gateMu.Lock()
		for s.epoch == seen && !s.closed {
			s.gateCond.Wait()
		}
		if s.epoch == seen {
			s.gateMu.Unlock()
			return
		}
		seen = s.epoch
		wakeNs := s.wakeNs
		s.gateMu.Unlock()
		// Every lane's books start at the epoch publish instant, but only
		// the first lane to run charges the gap to spawn: that gap is the
		// pool's wake latency, the residue of what used to be a goroutine
		// startup. The remaining lanes were merely queued for a CPU while
		// their peers (or the caller) ran — on an oversubscribed host that
		// queueing can span most of the batch, and it is idle time (park),
		// not dispatch cost.
		w.clock.last = wakeNs
		if f := s.firstRun.Load(); f < seen && s.firstRun.CompareAndSwap(f, seen) {
			w.clock.stamp(phaseSpawn)
		} else {
			w.clock.stamp(phasePark)
		}
		m.batchLoop(wi)
		// The exit tail (retiring the last task's bookkeeping, or the
		// final park wake-up) is charged to park so the lane's phase
		// totals cover its whole time in the batch.
		w.clock.stamp(phasePark)
		s.batchWG.Done()
	}
}

// claimSeed takes worker w's next seed task, claiming a fresh run of
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

// shed reports whether a lane with a wide fan-out should queue it for
// thieves instead of running it inline: only when other lanes exist and
// have no seed left to claim.
func (s *scheduler) shed() bool {
	return !s.solo && int(s.nextSeed.Load()) >= len(s.seeds)
}

// retire ends the task worker w just ran: the tasks it spawned go onto
// w's deque (spilling to overflow when full), an in-batch sleeper is
// woken if any lane is parked, and the outstanding count moves from the
// task to its children in one step — none at all for a single child.
// The children are counted before they are pushed, so no thief can
// retire one early and end the batch. It reports whether the batch's
// last task just retired.
func (s *scheduler) retire(w *worker) (last bool) {
	n := len(w.spawned)
	if n == 0 {
		return s.outstanding.Add(-1) == 0
	}
	if n > 1 {
		s.outstanding.Add(int64(n - 1))
	}
	for _, t := range w.spawned[w.dq.pushAll(w.spawned):] {
		s.spill(t)
	}
	clear(w.spawned) // release token references
	w.spawned = w.spawned[:0]
	s.wakeSleeper()
	return false
}

// wakeSleeper wakes an in-batch parked lane, if there is one, to share
// tasks just pushed. Pushers pay one atomic load when every lane is
// busy.
func (s *scheduler) wakeSleeper() {
	if s.sleepers.Load() == 0 {
		return
	}
	s.parkMu.Lock()
	if s.steal {
		// Any woken worker can reach the tasks by stealing.
		s.cond.Signal()
	} else {
		// Without stealing only the deque's owner can run them, and
		// Signal might wake some other worker that would just go back
		// to sleep — wake everyone.
		s.cond.Broadcast()
	}
	s.parkMu.Unlock()
}

// spill pushes a task onto the shared overflow list.
func (s *scheduler) spill(t task) {
	s.overflow.mu.Lock()
	s.overflow.items = append(s.overflow.items, t)
	s.overflow.mu.Unlock()
}

// popOverflow takes one task from the shared overflow list.
func (s *scheduler) popOverflow() (task, bool) {
	s.overflow.mu.Lock()
	n := len(s.overflow.items)
	if n == 0 {
		s.overflow.mu.Unlock()
		return task{}, false
	}
	t := s.overflow.items[n-1]
	s.overflow.items[n-1] = task{}
	s.overflow.items = s.overflow.items[:n-1]
	s.overflow.mu.Unlock()
	return t, true
}

// stealGrain caps one steal. Deques now hold only spawned downstream
// activations (seeds are claimed from the shared list), a few hundred
// nanoseconds to a few microseconds each by the task-size histogram, so
// sixteen is several microseconds of work — enough to pay for the
// victim's lock and the copy, small enough that the copy buffer stays
// under a kilobyte of stack.
const stealGrain = 16

// findWork is the slow path for a worker with an empty deque and no
// seed left to claim: steal half of a random victim's deque, else drain
// overflow. Its time is charged to steal_hit (successful scan),
// overflow (a task from the shared list) or steal_miss (nothing found;
// also the fruitless prefix of a scan that ends at the overflow list).
func (s *scheduler) findWork(wi int) (task, bool) {
	w := &s.workers[wi]
	if s.steal && len(s.workers) > 1 {
		var buf [stealGrain]task
		off := int(w.nextRand() % uint32(len(s.workers)))
		for i := 0; i < len(s.workers); i++ {
			vi := off + i
			if vi >= len(s.workers) {
				vi -= len(s.workers)
			}
			if vi == wi {
				continue
			}
			k := s.workers[vi].dq.stealHalf(buf[:])
			if k == 0 {
				continue
			}
			w.stolen += int64(k)
			if k > 1 {
				for _, t := range buf[1:k][w.dq.pushAll(buf[1:k]):] {
					s.spill(t)
				}
				// More than this lane will run at once: pass the wake on.
				s.wakeSleeper()
			}
			w.clock.stamp(phaseStealHit)
			return buf[0], true
		}
		w.clock.stamp(phaseStealMiss)
	}
	if t, ok := s.popOverflow(); ok {
		w.clock.stamp(phaseOverflow)
		return t, true
	}
	w.clock.stamp(phaseStealMiss)
	return task{}, false
}

// usableWork reports whether worker wi could obtain a task right now:
// its own deque, an unclaimed seed, the overflow list, or (with stealing
// on) any victim.
func (s *scheduler) usableWork(wi int) bool {
	if s.workers[wi].dq.size() > 0 || int(s.nextSeed.Load()) < len(s.seeds) {
		return true
	}
	s.overflow.mu.Lock()
	n := len(s.overflow.items)
	s.overflow.mu.Unlock()
	if n > 0 {
		return true
	}
	if s.steal {
		for i := range s.workers {
			if i != wi && s.workers[i].dq.size() > 0 {
				return true
			}
		}
	}
	return false
}

// park blocks worker wi until work appears or the batch completes,
// returning false on completion. All time inside — registration,
// re-checks and the condvar wait — is charged to the park phase.
func (s *scheduler) park(wi int) bool {
	w := &s.workers[wi]
	s.parkMu.Lock()
	for {
		// Register as a sleeper BEFORE the final work re-check. A submit
		// that then loads sleepers == 0 is ordered before this
		// registration, so its push is visible to the usableWork scan
		// below; a submit that loads sleepers > 0 signals under parkMu
		// and cannot fire between the scan and the Wait. Either way the
		// wakeup is not lost.
		s.sleepers.Add(1)
		if s.outstanding.Load() == 0 {
			s.sleepers.Add(-1)
			s.parkMu.Unlock()
			w.clock.stamp(phasePark)
			return false
		}
		if s.usableWork(wi) {
			s.sleepers.Add(-1)
			s.parkMu.Unlock()
			w.clock.stamp(phasePark)
			return true
		}
		w.parked++
		s.cond.Wait()
		s.sleepers.Add(-1)
	}
}

// wakeAll broadcasts batch completion to every in-batch parked worker.
func (s *scheduler) wakeAll() {
	s.parkMu.Lock()
	s.cond.Broadcast()
	s.parkMu.Unlock()
}
