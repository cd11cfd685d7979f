package prete

// This file is the software stand-in for the PSM's hardware task
// scheduler (§5). The paper attributes much of the 1.93x "lost factor"
// between nominal and true speedup (§6) to scheduling and
// synchronisation overhead, and argues parallel Rete only pays off when
// dispatching one node activation costs about one bus cycle. A single
// shared queue serialises every push and pop on one mutex, and spawning
// goroutines per batch charges a goroutine startup to every lane on
// every Apply — exactly the overheads the paper warns about.
//
// The paper's machine has one pool of processors that every activation
// of every production competes for. So does this process: one pool of
// GOMAXPROCS−1 helper goroutines (lanePool) serves every matcher, and a
// matcher owns no goroutine of its own. Each matcher keeps one growable
// deque per lane:
//
//   - Lane 0 is Apply's caller. Lanes 1… are offered to the pool with a
//     non-blocking send, so only a helper idle at that instant takes
//     one and a busy pool is never waited for; with no idle helper the
//     caller runs the batch alone. A per-batch WaitGroup over the
//     borrowed helpers is the barrier. Each borrowed lane charges its
//     hand-off-to-entry gap to the spawn phase.
//   - A batch's seed tasks stay in one list that the lanes claim from
//     through a shared cursor (claimSeed): nothing is pushed while
//     seeding, and a lane that finishes early simply claims more.
//   - A lane pushes the activations it generates onto its own deque
//     tail and pops from the tail (LIFO), so a token's downstream
//     activations run depth-first on the producing lane while their
//     inputs are cache-hot. No lock is contended in steady state.
//   - A lane with an empty deque and no seed left steals the older
//     half of a random victim's deque from the head (steal-half, FIFO
//     end, at most stealGrain tasks) — the classic work-stealing split
//     that moves large, stale subtrees to idle lanes while the victim
//     keeps its hot tail.
//   - A full deque doubles under its own lock, which thieves already
//     take.
//   - Only when every deque drains does a lane park on the in-batch
//     condvar; pushers signal it only when sleepers are registered, so
//     the hot path pays one atomic load. An outstanding-task count
//     provides termination: the lane that retires the last task
//     broadcasts batch completion, and every lane leaves the batch.
//
// A lane counts its work (executed/stolen/parked, comparisons,
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

// deqMin is a worker deque's first ring size. Tasks are small, so 256
// slots keep a worker's window under a few KB.
const deqMin = 256

// wdeque is one worker's ring deque, a power-of-two slice grown by
// doubling. The owner pushes and pops at the tail; thieves take from the
// head. A mutex per deque is cheap here: the owner's lock is
// uncontended unless a thief is active, and activations do 50-100
// instructions of work per lock acquisition.
type wdeque struct {
	mu   sync.Mutex
	buf  []task
	head int // index of the oldest task (steal end)
	n    int // population
}

// reserve makes room for k more tasks, doubling the ring and unwrapping
// it to start at 0 when it is too small. The caller holds mu.
func (d *wdeque) reserve(k int) {
	if d.n+k <= len(d.buf) {
		return
	}
	size := max(len(d.buf), deqMin)
	for size < d.n+k {
		size *= 2
	}
	buf := make([]task, size)
	for i := 0; i < d.n; i++ {
		buf[i] = d.buf[(d.head+i)&(len(d.buf)-1)]
	}
	d.buf, d.head = buf, 0
}

// popTail removes the newest task (owner side, LIFO).
func (d *wdeque) popTail() (task, bool) {
	d.mu.Lock()
	if d.n == 0 {
		d.mu.Unlock()
		return task{}, false
	}
	d.n--
	i := (d.head + d.n) & (len(d.buf) - 1)
	t := d.buf[i]
	d.buf[i] = task{} // release token/WME references
	d.mu.Unlock()
	return t, true
}

// pushAll adds tasks at the tail under one lock acquisition.
func (d *wdeque) pushAll(ts []task) {
	d.mu.Lock()
	d.reserve(len(ts))
	for _, t := range ts {
		d.buf[(d.head+d.n)&(len(d.buf)-1)] = t
		d.n++
	}
	d.mu.Unlock()
}

// stealHalf removes the older half of the deque (at least one task,
// from the head) into out, returning the count taken.
func (d *wdeque) stealHalf(out []task) int {
	d.mu.Lock()
	k := min((d.n+1)/2, len(out))
	for i := 0; i < k; i++ {
		out[i] = d.buf[d.head]
		d.buf[d.head] = task{}
		d.head = (d.head + 1) & (len(d.buf) - 1)
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

// scheduler owns the lanes and the in-batch parking state of one
// Matcher. It persists across Apply batches so deques, scratch buffers
// and counters are reused; the goroutines that run lanes 1… are the
// pool's, borrowed per batch.
type scheduler struct {
	workers []worker
	steal   bool

	// seeds is the batch's seed tasks and solo whether the caller runs
	// the batch alone; Apply writes both before handing out any lane and
	// they are read-only until the barrier. nextSeed is the claim cursor.
	seeds    []task
	solo     bool
	nextSeed atomic.Int64

	// outstanding counts unretired tasks, claimed or not; the worker
	// that takes it to zero ends the batch. Only Apply (seeding) and
	// retire touch it.
	outstanding atomic.Int64

	// In-batch parking: a worker that finds no work registers in
	// sleepers and waits on cond; pushers signal only when sleepers > 0,
	// so pushes pay one atomic load when everyone is busy.
	parkMu   sync.Mutex
	cond     *sync.Cond
	sleepers atomic.Int32

	// batchWG is the per-batch barrier over the borrowed helpers: one
	// Add per lane offered, Done when a helper leaves the lane's batch
	// loop (or at once for an offer no helper took).
	batchWG sync.WaitGroup

	// wakeups counts batches that borrowed at least one helper;
	// bypasses counts batches the caller ran alone.
	wakeups  atomic.Int64
	bypasses atomic.Int64
}

func newScheduler(workers int, steal bool, nodes int, pool *tokenPool) *scheduler {
	s := &scheduler{workers: make([]worker, workers), steal: steal}
	s.cond = sync.NewCond(&s.parkMu)
	for i := range s.workers {
		s.workers[i].rng = uint32(i)*2654435761 + 1
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
// at the first offer none takes, and returns how many were taken. solo
// must already be false: a helper reads it as soon as it has its lane.
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
// tail (retiring the last task's bookkeeping, or the final park
// wake-up) is charged to park so the lane's phase totals cover its
// whole time in the batch.
func (m *Matcher) runLane(wi int, from int64) {
	s := m.sched
	w := &s.workers[wi]
	w.clock.last = from
	w.clock.stamp(phaseSpawn)
	m.batchLoop(wi)
	w.clock.stamp(phasePark)
	s.batchWG.Done()
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
// w's deque, an in-batch sleeper is woken if any lane is parked, and
// the outstanding count moves from the task to its children in one step
// — none at all for a single child.
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
	w.dq.pushAll(w.spawned)
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

// stealGrain caps one steal. Deques now hold only spawned downstream
// activations (seeds are claimed from the shared list), a few hundred
// nanoseconds to a few microseconds each by the task-size histogram, so
// sixteen is several microseconds of work — enough to pay for the
// victim's lock and the copy, small enough that the copy buffer stays
// under a kilobyte of stack.
const stealGrain = 16

// findWork is the slow path for a worker with an empty deque and no
// seed left to claim: steal half of a random victim's deque. Its time is
// charged to steal_hit (successful scan) or steal_miss (nothing found).
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
				w.dq.pushAll(buf[1:k])
				// More than this lane will run at once: pass the wake on.
				s.wakeSleeper()
			}
			w.clock.stamp(phaseStealHit)
			return buf[0], true
		}
	}
	w.clock.stamp(phaseStealMiss)
	return task{}, false
}

// usableWork reports whether worker wi could obtain a task right now:
// its own deque, an unclaimed seed, or (with stealing on) any victim.
func (s *scheduler) usableWork(wi int) bool {
	if s.workers[wi].dq.size() > 0 || int(s.nextSeed.Load()) < len(s.seeds) {
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
