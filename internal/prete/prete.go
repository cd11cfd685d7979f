// Package prete implements the paper's core contribution: the parallel
// Rete algorithm of §4-5, exploiting parallelism at the granularity of
// individual node activations.
//
// The matcher is the parallel executor of a rete.Plan — the same
// immutable compiled network the serial matcher of internal/rete runs.
// It reads the plan's constant-test tree, node descriptors, memory keys,
// join-key hashes and test chains as they are, and owns only
// what executing them in parallel needs: lock-striped counted-multiset
// memories and a scheduler.
//
// Design (following Gupta's parallel Rete):
//
//   - The unit of work is one node activation: a (two-input node, token
//     or WME, side, direction) tuple, typically 50-100 machine
//     instructions of work (§4).
//   - Memory nodes are merged into the two-input nodes: each node owns
//     its right (WME) memory, and the positive joins keying one beta
//     memory of the plan alike share one left (token) memory, striped by
//     join-key hash, so one stripe lock makes the
//     update-memory-and-scan-opposite-memory step atomic. This is the
//     structure the paper's hardware task scheduler assumes ("multiple
//     node activations assigned to be processed in parallel cannot
//     interfere with each other", §5). What duplication of memory
//     between nodes remains is part of the paper's "loss of sharing"
//     factor.
//   - Multiple activations of different nodes, multiple activations of
//     the same memory contents via distinct nodes, and multiple working
//     memory changes are all processed in parallel (§4, the two
//     relaxations over naive node parallelism).
//   - Work is dispatched as seeds (sched.go), standing in for the
//     paper's hardware task scheduler: a seed is one WM change's right
//     activations, the lanes claim seeds from one list, and every
//     activation a seed causes runs depth-first on the lane that claimed
//     it. Apply's caller runs lane 0 and hands the other lanes to idle
//     helpers of one process-wide pool, borrowed per batch.
//   - An activation allocates nothing once the matcher has warmed up.
//     Join keys and token identities are uint64 hashes (shared with the
//     serial matcher's indexes), memory entries are pooled, and
//     conflict-set deltas batch per worker until the flush merge. A
//     delete names the token it retracts as (base token, WME) and each
//     memory below resolves that pair to the token it stored, as the
//     serial matcher's betaDelete does; so does an insert that only
//     terminals read. An insert that left memories read is built into a
//     recycled token: a token counts the memory entries and emits that
//     hold it, and one no longer held returns to the matcher's pool at
//     the next batch barrier (tokens.go). The only other token built is
//     for a delete that reaches a memory ahead of the insert it undoes,
//     on another lane: its pending cancel must hold one for that insert
//     to find. A removal hands the conflict set the instantiation its
//     insert announced (rete.Live).
//   - Task granularity is coarse. Sibling right-activations of one WME
//     (the successors of up to seedGrain alpha memories) seed as a
//     single multi-activation task, whose downstream activations never
//     leave its lane; and a whole batch whose seeded activation count is
//     under the profitability threshold runs inline on the caller
//     without borrowing a helper at all — the §6 lesson that dispatch
//     must cost less than the ~50-100 instructions of work it
//     dispatches.
//   - Within one Apply batch, activations may arrive at a node out of
//     order (a token's deletion may be processed before its insertion
//     reaches a downstream node). Memories therefore use counted
//     multiset semantics: an early delete records a pending cancel that
//     annihilates the late insert, and neither is propagated. The
//     conflict set is likewise updated with counted deltas and flushed
//     at the end of the batch — the batch boundary is the paper's
//     synchronization step between recognize-act phases. A batch the
//     caller ran alone ran in the serial matcher's order and has nothing
//     to cancel: its deltas are announced as they stand (flush).
package prete

import (
	"cmp"
	"runtime"
	"slices"
	"sync"

	"repro/internal/bucket"
	"repro/internal/obs"
	"repro/internal/ops5"
	"repro/internal/rete"
)

// task is the one unit of scheduler work, a seed: one WM change's right
// activations of every successor of the alpha memories in mems
// (aliasing Apply's per-batch scratch; no per-task allocation).
type task struct {
	mems []*rete.AlphaNode
	dir  ops5.ChangeKind
	wme  *ops5.WME
}

// seedGrain is the largest number of alpha memories one seed task
// right-activates; a change that reaches more is split, so a single
// change with a wide alpha fan-out still spreads over the lanes.
const seedGrain = 16

// serialBypassThreshold is the default seeded-activation count below
// which a batch runs inline on the caller instead of borrowing helpers.
// Re-derived on the 2-CPU box by re-cutting the fan-out script into
// batches of 1 to 384 changes (see README, "Match performance"): a wake
// round-trip plus the barrier costs about 30µs there and one seeded
// activation with its downstream work 1-2µs, so two lanes draw level
// with the caller running the batch alone between 70 and 150 seeded
// activations (12 to 24 changes of that script). The threshold sits at
// the top of that range so that a batch sent to the pool is not slower
// than the same batch inline.
const serialBypassThreshold = 128

// emit is one output of an activation: a token leaving node for its
// downstream left memories and terminals. A join's delete output names
// its token as the pair (tok, wme) — tok extended by wme — and never
// builds it: the memories below resolve the pair to the token they
// stored (runLeft), the conflict set instantiates straight from it. An
// insert, and a not-node's output in either direction, is tok itself
// (wme nil).
type emit struct {
	node *pnode
	tok  *rete.Token
	wme  *ops5.WME
	dir  ops5.ChangeKind
}

// pendingDelta is one conflict-set delta, batched per worker during a
// batch and instantiated at flush — every one of a batch the caller ran
// alone, the net survivors of the merge otherwise.
type pendingDelta struct {
	term *rete.Terminal
	tok  *rete.Token
	wme  *ops5.WME // non-nil: the instantiation's token is tok extended by wme (see emit)
	key  uint64    // mergeKey: the merge sorts on it without touching the tokens
	dir  ops5.ChangeKind
}

// size and at read the delta's token as one WME sequence, whichever
// form names it.
func (d *pendingDelta) size() int {
	if d.wme != nil {
		return len(d.tok.WMEs) + 1
	}
	return len(d.tok.WMEs)
}

func (d *pendingDelta) at(i int) *ops5.WME {
	if i < len(d.tok.WMEs) {
		return d.tok.WMEs[i]
	}
	return d.wme
}

// leftEntry is a counted multiset entry for a token. For not-nodes,
// matches tracks the number of matching right WMEs.
type leftEntry struct {
	tok     *rete.Token
	id      uint64 // tok.IDHash(), so an identity lookup walks its chain without touching the tokens
	count   int32
	matches int32
}

// rightEntry is a counted multiset entry for a right-memory WME.
type rightEntry struct {
	wme   *ops5.WME
	count int32
}

// stripes is the number of lock stripes per keyed left memory.
const stripes = 16

// stripe is one lock stripe of a group's memories: the shared left
// buckets whose join keys hash here and — in each member node's
// right[i] for the same stripe index i — the right buckets for the same
// keys. Any (token, WME) pair that can pass a member's equality tests
// computes the same join key, hence lands in the same stripe — so
// holding one stripe's lock makes the update-memory-and-scan-opposite-
// bucket step atomic, while activations with different keys proceed in
// parallel on other stripes. The tables are bucket.Buckets: entries are
// free-listed inside the table, so the insert-then-delete churn of the
// recognize-act cycle allocates nothing and the entry population is
// exactly the stripe's high-water mark.
type stripe struct {
	mu   sync.Mutex
	left bucket.Buckets[leftEntry]
	_    [16]byte // pad to a cache line so neighbouring stripes' locks do not share one
}

// group is one left memory and the two-input nodes that read it. The
// positive joins reading one beta memory of the plan by the same key
// (rete.JoinNode.LeftKey — what the serial network shares as one beta
// index) form one group and share its memory: a token is stored once,
// under the stripe lock for its join key, and each member's right bucket
// is probed under that same lock. This is the node sharing the paper
// says parallel Rete loses (§4), kept. A not-node is always a group of
// its own, because a left entry's matches count is per node; so is a
// join below the dummy top, whose left memory never changes.
type group struct {
	members []*pnode
	// leftHash computes a token's join-key hash; nil for a group with no
	// equality tests. An unkeyed group has one stripe, files tokens under
	// their identity hash and WMEs under their time tag (O(1) updates),
	// and scans every slot of the opposite table.
	leftHash func(*rete.Token) uint64
	stripes  []stripe
}

// stripeOf maps a join-key hash to its stripe index. The key is already
// an FNV-1a hash; folding the high bits keeps the stripe choice
// sensitive to more than the low bits.
func (g *group) stripeOf(key uint64) int {
	if len(g.stripes) == 1 {
		return 0
	}
	return int((key ^ key>>33) % stripes)
}

// pnode is the state of one two-input node of the plan: its right
// memory (one table per stripe of its group, guarded by that stripe's
// lock) and where its output goes. idx, rightHash and terminals
// repeat what join says, so that an activation reads one struct instead
// of chasing the plan's descriptors.
type pnode struct {
	idx  int // join.Index: position in Matcher.nodes and in the per-lane profiles
	join *rete.JoinNode
	grp  *group
	// rightHash computes a WME's join-key hash; nil in an unkeyed group.
	rightHash func(*ops5.WME) uint64
	right     []bucket.Buckets[rightEntry]

	// down are the left memories fed by this node's output tokens;
	// terminals announce conflict-set deltas.
	down      []*group
	terminals []*rete.Terminal
}

// first and next walk the candidates of a probe: key's chain in a keyed
// table, every slot of an unkeyed one (free slots hold a zero count and
// are skipped with the cancelled entries).
func first[E any](b *bucket.Buckets[E], keyed bool, key uint64) int32 {
	if keyed {
		return b.Head(key)
	}
	return b.Slots() - 1
}

func next[E any](b *bucket.Buckets[E], keyed bool, i int32) int32 {
	if keyed {
		return b.Next(i)
	}
	return i - 1
}

// Stats reports work done by the parallel matcher.
type Stats struct {
	// Tasks counts node activations executed.
	Tasks int64
	// Cancellations counts out-of-order insert/delete annihilations.
	Cancellations int64
	// Batches counts Apply calls.
	Batches int
	// Changes counts WM changes processed.
	Changes int64
	// Comparisons counts (token, wme) pairs tested at nodes — bucket
	// candidates only, for nodes with an equality key.
	Comparisons int64
	// ConflictInserts and ConflictRemoves count flushed deltas.
	ConflictInserts int64
	ConflictRemoves int64
	// Steals is always zero: no lane takes another's work. It stays
	// because benchmark/layers reads it, as Close stays for its calls.
	Steals int64
	// Wakeups counts batches that borrowed at least one helper from the
	// lane pool; InlineBatches counts batches the caller ran alone
	// (under the bypass threshold, one lane, or no helper idle).
	Wakeups       int64
	InlineBatches int64
	// PerWorker breaks the scheduler counters down by lane.
	PerWorker []obs.WorkerStat
}

// Config configures a parallel matcher.
type Config struct {
	// Workers caps the scheduler's lanes; <= 0 selects GOMAXPROCS, and
	// no more than GOMAXPROCS lanes are ever built, since no more could
	// run at once.
	Workers int
	// SerialThreshold overrides the seeded-activation count below which
	// a batch runs inline on the caller instead of borrowing helpers
	// from the lane pool: 0 selects the default (serialBypassThreshold),
	// a negative value disables the bypass so every multi-lane batch
	// offers its lanes (used by scheduler tests and measurements).
	SerialThreshold int
}

// Matcher is the parallel Rete matcher. It satisfies engine.Matcher.
type Matcher struct {
	plan *rete.Plan
	// nodes mirrors plan.Joins (ascending node ID); groups are the left
	// memories; roots maps an alpha memory's index to the nodes on its
	// right-input successor list.
	nodes  []*pnode
	groups []*group
	roots  [][]*pnode
	sched  *scheduler

	// OnInsert and OnRemove receive conflict-set deltas at the end of
	// each Apply batch, on the calling goroutine.
	OnInsert func(*ops5.Instantiation)
	OnRemove func(*ops5.Instantiation)

	// mu guards everything below: the books Apply closes at each batch
	// barrier, which Stats, NodeProfile and Loss read. Workers never
	// touch them — they count on their own lane (worker.laneBooks,
	// worker.prof) and Apply folds the lanes in after the barrier.
	mu      sync.Mutex
	batches int
	changes int64
	confIns int64
	confRem int64
	// applyNs/seedNs/activeNs/mergeNs accumulate Apply wall time and
	// its serial-dispatch, parallel-window and merge-barrier regions
	// (loss.go).
	applyNs  int64
	seedNs   int64
	activeNs int64
	mergeNs  int64
	lanes    []laneBooks     // per scheduler lane
	prof     []rete.NodeProf // per node, indexed like nodes

	// bypassBelow is the resolved serial-bypass threshold (0 disables).
	bypassBelow int
	// pool holds the tokens no memory holds, for the lanes to build join
	// outputs into (tokens.go); live holds the instantiations in the
	// conflict set, for flush to hand back on removal.
	pool tokenPool
	live rete.Live
	// seedMems and flushBuf are Apply-only scratch, reused across
	// batches so seeding and flushing allocate nothing steady-state.
	seedMems []*rete.AlphaNode
	flushBuf []pendingDelta
}

// New compiles the productions and builds the parallel node graph.
// workers <= 0 selects GOMAXPROCS workers.
func New(prods []*ops5.Production, workers int) (*Matcher, error) {
	return NewWithConfig(prods, Config{Workers: workers})
}

// NewWithConfig is New with full scheduler configuration.
func NewWithConfig(prods []*ops5.Production, cfg Config) (*Matcher, error) {
	plan, err := rete.CompilePlan(prods)
	if err != nil {
		return nil, err
	}
	return NewOnPlan(plan, cfg), nil
}

// NewOnPlan builds a parallel matcher with empty memories over an
// already compiled plan, which it only reads: any number of matchers
// (and serial networks) may run one plan. The first matcher with more
// than one lane starts the process's lane pool.
func NewOnPlan(plan *rete.Plan, cfg Config) *Matcher {
	workers := runtime.GOMAXPROCS(0)
	if cfg.Workers > 0 {
		workers = min(cfg.Workers, workers)
	}
	if workers > 1 {
		startLanePool()
	}
	bypass := cfg.SerialThreshold
	switch {
	case bypass == 0:
		bypass = serialBypassThreshold
	case bypass < 0:
		bypass = 0
	}
	m := &Matcher{
		plan:        plan,
		nodes:       make([]*pnode, len(plan.Joins)),
		prof:        make([]rete.NodeProf, len(plan.Joins)),
		lanes:       make([]laneBooks, workers),
		bypassBelow: bypass,
		live:        make(rete.Live, len(plan.Terminals)),
	}
	m.sched = newScheduler(workers, len(m.nodes), &m.pool)

	// One left memory per key of each beta memory (and one for its
	// unkeyed readers) for the positive joins; a private one for each
	// not-node and each join below the dummy top.
	groupsOf := make([][]*group, len(plan.Betas))
	for _, b := range plan.Betas {
		shared := make([]*group, len(b.Keys)+1) // by LeftKey+1
		for _, j := range b.Joins {
			shareable := j.Kind == rete.JoinPositive && b.Index != 0
			g := shared[j.LeftKey+1]
			if !shareable || g == nil {
				g = &group{leftHash: j.LeftHash, stripes: make([]stripe, 1)}
				if j.LeftHash != nil {
					g.stripes = make([]stripe, stripes)
				}
				if shareable {
					shared[j.LeftKey+1] = g
				}
				m.groups = append(m.groups, g)
				groupsOf[b.Index] = append(groupsOf[b.Index], g)
			}
			pn := &pnode{
				idx: j.Index, join: j, grp: g,
				rightHash: j.RightHash, terminals: j.Out.Terminals,
				right: make([]bucket.Buckets[rightEntry], len(g.stripes)),
			}
			m.nodes[j.Index] = pn
			g.members = append(g.members, pn)
		}
	}
	for _, pn := range m.nodes {
		pn.down = groupsOf[pn.join.Out.Index]
	}
	// Prime the memories fed by the dummy top with the empty token.
	// These joins have no earlier CE to bind variables, hence no
	// equality tests and a single stripe; a not-node's matches start at
	// zero against its empty right memory.
	for _, g := range groupsOf[0] {
		empty := &rete.Token{}
		empty.Hold(1) // the entry's, never released
		g.stripes[0].left.Add(empty.IDHash(), leftEntry{tok: empty, id: empty.IDHash(), count: 1})
	}
	m.roots = make([][]*pnode, len(plan.Alphas))
	for _, a := range plan.Alphas {
		for _, j := range a.Succs {
			m.roots[a.Index] = append(m.roots[a.Index], m.nodes[j.Index])
		}
	}
	return m
}

// Workers returns the scheduler lane count.
func (m *Matcher) Workers() int { return len(m.sched.workers) }

// Close does nothing: a matcher owns no goroutine (its extra lanes are
// borrowed per batch from the process's lane pool), so there is nothing
// to release. It exists only because benchmark/layers calls it.
func (m *Matcher) Close() {}

// Stats returns a snapshot of the work counters as of the last
// completed batch (the pool counters are live).
func (m *Matcher) Stats() Stats {
	m.mu.Lock()
	st := Stats{
		Batches:         m.batches,
		Changes:         m.changes,
		ConflictInserts: m.confIns,
		ConflictRemoves: m.confRem,
		PerWorker:       make([]obs.WorkerStat, len(m.lanes)),
	}
	for i := range m.lanes {
		l := &m.lanes[i]
		st.PerWorker[i] = obs.WorkerStat{Executed: l.executed}
		st.Tasks += l.executed
		st.Comparisons += l.comparisons
		st.Cancellations += l.cancellations
	}
	m.mu.Unlock()
	st.Wakeups = m.sched.wakeups.Load()
	st.InlineBatches = m.sched.bypasses.Load()
	return st
}

// IndexInfo reports the hash-bucketed node memories: the two-input
// nodes by whether they key their memories on an equality join key, and
// the live (key, side) buckets. It takes each stripe lock in turn —
// never more than one at a time — so it is safe to call concurrently
// with Apply; the numbers are then a point-in-time sample of a moving
// target, not a consistent snapshot.
func (m *Matcher) IndexInfo() obs.IndexReport {
	var info obs.IndexReport
	add := func(buckets, maxChain int) {
		info.Buckets += buckets
		info.MaxBucket = max(info.MaxBucket, maxChain)
	}
	for _, g := range m.groups {
		if g.leftHash != nil {
			info.IndexedNodes += len(g.members)
		} else {
			info.FallbackNodes += len(g.members)
		}
		for i := range g.stripes {
			st := &g.stripes[i]
			st.mu.Lock()
			add(st.left.Stats())
			for _, pn := range g.members {
				add(pn.right[i].Stats())
			}
			st.mu.Unlock()
		}
	}
	return info
}

// NodeProfile returns the accumulated per-node work of every activated
// two-input node as of the last completed batch, in node-ID order, in
// the same shape as the serial network's profile.
// A left activation of a shared memory counts once for every member
// whose right bucket it probed. Every activation of a keyed node probes
// its join-key bucket, so IndexedProbes equals Activations there and is
// zero on unkeyed fallback nodes.
func (m *Matcher) NodeProfile() []obs.NodeProfileEntry {
	m.mu.Lock()
	prof := append([]rete.NodeProf(nil), m.prof...)
	m.mu.Unlock()
	var out []obs.NodeProfileEntry
	for i, pn := range m.nodes {
		if prof[i].Activations == 0 {
			continue
		}
		e := prof[i].Entry(pn.join)
		if pn.rightHash != nil {
			e.IndexedProbes = e.Activations
		}
		out = append(out, e)
	}
	return out
}

// Apply processes a batch of WM changes in parallel and flushes the net
// conflict-set deltas through OnInsert/OnRemove before returning. The
// caller runs lane 0; a batch big enough to amortise the hand-off
// offers the other lanes to idle helpers of the process's lane pool.
// Apply must not be called concurrently with itself.
func (m *Matcher) Apply(changes []ops5.Change) {
	t0 := nanotime()
	s := m.sched
	// Dispatch every change through the (read-only) constant-test
	// network. One change's right activations form one seed task (split
	// at seedGrain alpha memories); the activation count under the seeds
	// drives the bypass decision. All changes are injected up front: the
	// paper's "multiple changes to working memory are processed in
	// parallel". The lanes claim seeds from this list through a shared
	// cursor, so seeding pushes nothing and the split between lanes
	// balances itself.
	mems := m.seedMems[:0]
	seeds := s.seeds[:0]
	activations := 0
	for _, ch := range changes {
		from := len(mems)
		mems = m.plan.AppendAlphas(mems, ch.WME)
		for i := from; i < len(mems); i++ {
			activations += len(m.roots[mems[i].Index])
		}
		for ; from < len(mems); from += seedGrain {
			to := min(from+seedGrain, len(mems))
			seeds = append(seeds, task{mems: mems[from:to:to], dir: ch.Kind, wme: ch.WME})
		}
	}
	s.seeds = seeds
	t1 := nanotime()
	t2 := t1
	solo := len(s.workers) == 1 || activations < m.bypassBelow
	if len(seeds) > 0 {
		s.nextSeed.Store(0)
		s.workers[0].clock.last = t1
		if !solo {
			solo = s.borrow(m, t1) == 0
			s.workers[0].clock.stamp(phaseSpawn)
		}
		if solo {
			s.bypasses.Add(1)
		} else {
			s.wakeups.Add(1)
		}
		m.batchLoop(&s.workers[0])
		s.batchWG.Wait()
		t2 = nanotime()
		// Close each lane's books to the barrier: a lane's own stamps
		// stop at its batch-loop exit, but the active window ends only
		// when the last lane is through the barrier. Charging the
		// straggler gap to park makes the phase totals cover the whole
		// window, so seed + merge + phases/workers reconstructs Apply
		// wall time. A lane no helper took still owes its whole [t1, t2]
		// share of the processor budget — that idle time is charged to
		// park too. batchWG.Wait orders these writes after every
		// borrowed lane's last stamp.
		for i := range s.workers {
			c := &s.workers[i].clock
			c.ns[phasePark] += t2 - max(c.last, t1)
			c.last = t2
		}
	}
	clear(seeds) // release WME references
	clear(mems)
	m.seedMems = mems[:0]
	ins, rem := m.flush(solo)
	m.pool.reclaim(s.workers)
	t3 := nanotime()
	m.mu.Lock()
	for i := range s.workers {
		s.workers[i].foldInto(&m.lanes[i], m.prof)
	}
	m.batches++
	m.changes += int64(len(changes))
	m.confIns += ins
	m.confRem += rem
	m.applyNs += t3 - t0
	m.seedNs += t1 - t0
	m.activeNs += t2 - t1
	m.mergeNs += t3 - t2
	m.mu.Unlock()
}

// batchLoop is one scheduler lane's run loop for a single batch: claim
// seeds until none is left, running each seed's right activations and,
// depth-first, every activation they cause. A lane that runs the batch
// alone claims every seed in change order — the serial matcher's order.
// The lane's clock is read at seed boundaries only: everything from the
// previous stamp through the activations (the claim, key hashes, guarded
// sections, profile counts) is match work; a stripe lock costs a stamp
// only when it is contended (lock). The match stamp also sizes the seed
// for the histogram.
func (m *Matcher) batchLoop(w *worker) {
	for {
		t, ok := m.sched.claimSeed(w)
		if !ok {
			return
		}
		start := w.clock.last
		for _, am := range t.mems {
			for _, n := range m.roots[am.Index] {
				m.runRight(n, t.wme, t.dir, w)
			}
		}
		w.clock.stamp(phaseMatch)
		w.taskSizes[taskBucket(w.clock.last-start)]++
	}
}

// lock takes a stripe lock, stamping the lane's clock only when the
// lock is contended.
func (w *worker) lock(st *stripe) {
	if st.mu.TryLock() {
		return
	}
	w.clock.stamp(phaseMatch)
	st.mu.Lock()
	w.clock.stamp(phaseLockWait)
}

// runRight executes the right activation of node n by WME wme: update
// n's right bucket for the WME's join key and scan the shared left
// bucket under the same stripe lock. A matching pair always shares the
// key, so that bucket is the complete candidate set.
func (m *Matcher) runRight(n *pnode, wme *ops5.WME, dir ops5.ChangeKind, w *worker) {
	g := n.grp
	keyed := n.rightHash != nil
	key, own := uint64(0), uint64(wme.TimeTag)
	if keyed {
		key = n.rightHash(wme)
		own = key
	}
	si := g.stripeOf(key)
	st := &g.stripes[si]
	emits, out := w.emits, len(w.emits)
	tested := 0
	w.lock(st)
	if updateRight(&n.right[si], own, wme, dir) {
		w.cancellations++
	} else {
		negated := n.join.Kind == rete.JoinNegative
		for i := first(&st.left, keyed, key); i >= 0; i = next(&st.left, keyed, i) {
			e := st.left.At(i)
			if e.count <= 0 {
				continue
			}
			tested++
			if !n.join.Eval(e.tok, wme) {
				continue
			}
			// A token present c times stands for c copies: every copy
			// pairs with the WME.
			switch {
			case !negated:
				for c := e.count; c > 0; c-- {
					emits = append(emits, w.joined(n, e.tok, wme, dir))
				}
			case dir == ops5.Insert:
				if e.matches++; e.matches == 1 {
					for c := e.count; c > 0; c-- {
						emits = append(emits, passed(n, e.tok, ops5.Delete))
					}
				}
			default:
				if e.matches--; e.matches == 0 {
					for c := e.count; c > 0; c-- {
						emits = append(emits, passed(n, e.tok, ops5.Insert))
					}
				}
			}
		}
	}
	st.mu.Unlock()
	w.executed++
	w.comparisons += int64(tested)
	w.prof[n.idx].Activations++
	w.prof[n.idx].TokensTested += int64(tested)
	w.prof[n.idx].PairsEmitted += int64(len(emits) - out)
	w.emits = emits
	m.propagate(w, out)
}

// joined is a join's output for a token and a WME that pass it. A
// delete names its token by the pair, and so does an insert that only
// terminals read; an insert feeding left memories builds the extended
// token on the lane, holding a reference for each of them.
func (w *worker) joined(n *pnode, tok *rete.Token, wme *ops5.WME, dir ops5.ChangeKind) emit {
	if dir == ops5.Delete || len(n.down) == 0 {
		return emit{node: n, tok: tok, wme: wme, dir: dir}
	}
	nt := w.token()
	tok.ExtendInto(nt, wme)
	nt.Hold(len(n.down))
	return emit{node: n, tok: nt, dir: dir}
}

// passed is a not-node's output: its left token, passed on in either
// direction, holding a reference for each left memory below. It is
// called under the stripe lock of the entry that holds the token, so the
// token cannot be retired before the references are taken.
func passed(n *pnode, tok *rete.Token, dir ops5.ChangeKind) emit {
	if len(n.down) > 0 {
		tok.Hold(len(n.down))
	}
	return emit{node: n, tok: tok, dir: dir}
}

// runLeft executes the left activation of group g by token tok, or by
// tok extended by ext when ext is non-nil: update the shared left bucket
// once, then scan each member's right bucket for the token's join key,
// all under the one stripe lock. A pair's join key is hashed from the
// lane's scratch token; from the update on, the activation runs on the
// token the bucket holds.
func (m *Matcher) runLeft(g *group, tok *rete.Token, ext *ops5.WME, dir ops5.ChangeKind, w *worker) {
	keyed := g.leftHash != nil
	id, probe := tok.ExtIDHash(ext), tok
	if ext != nil && keyed {
		tok.ExtendInto(&w.scratch, ext)
		probe = &w.scratch
	}
	key, own := uint64(0), id
	if keyed {
		key = g.leftHash(probe)
		own = key
	}
	si := g.stripeOf(key)
	st := &g.stripes[si]
	emits, out := w.emits, len(w.emits)
	w.lock(st)
	tok, e, hadMatches, cancelled := w.updateLeft(&st.left, own, id, tok, ext, dir)
	if cancelled {
		w.cancellations++
	}
	for _, n := range g.members {
		tested, from := 0, len(emits)
		negated := n.join.Kind == rete.JoinNegative
		if !cancelled {
			// A not-node's token passes while no right WME matches: an
			// insert counts its matches, a delete goes by the count the
			// entry held.
			matches := hadMatches
			if !negated || dir == ops5.Insert {
				matches = 0
				right := &n.right[si]
				for i := first(right, keyed, key); i >= 0; i = next(right, keyed, i) {
					re := right.At(i)
					if re.count <= 0 {
						continue
					}
					tested++
					if !n.join.Eval(tok, re.wme) {
						continue
					}
					matches += re.count
					for c := re.count; c > 0 && !negated; c-- {
						emits = append(emits, w.joined(n, tok, re.wme, dir))
					}
				}
			}
			if negated {
				if dir == ops5.Insert {
					e.matches = matches
				}
				if matches == 0 {
					emits = append(emits, passed(n, tok, dir))
				}
			}
		}
		w.comparisons += int64(tested)
		w.prof[n.idx].Activations++
		w.prof[n.idx].TokensTested += int64(tested)
		w.prof[n.idx].PairsEmitted += int64(len(emits) - from)
	}
	st.mu.Unlock()
	w.executed++
	w.emits = emits
	m.propagate(w, out)
	if e == nil {
		w.release(tok) // the unlinked entry's reference, once what it forwarded is on its way
	}
}

// propagate hands on the outputs the lane's current activation pushed
// onto w.emits from out on: conflict deltas batch on the lane, and the
// downstream left activations run depth-first right here. Each of those
// pushes its outputs above these and pops them before it returns, so
// w.emits is a stack of the outputs in flight along the current chain.
// A push may move the stack, so it is indexed afresh on every read.
func (m *Matcher) propagate(w *worker, out int) {
	top := len(w.emits)
	for _, e := range w.emits[out:] {
		for _, term := range e.node.terminals {
			w.pending = append(w.pending, pendingDelta{term: term, tok: e.tok, wme: e.wme, key: mergeKey(term, e.tok, e.wme), dir: e.dir})
		}
	}
	for i := out; i < top; i++ {
		e := w.emits[i]
		for _, g := range e.node.down {
			m.runLeft(g, e.tok, e.wme, e.dir, w)
		}
	}
	w.emits = w.emits[:out]
}

// updateLeft applies a counted insert or delete to a left table under
// lookup key k on lane w. The token is tok, or tok extended by ext when
// ext is non-nil; id is its identity hash. It returns the token the
// table holds for it, and reports whether the operation was annihilated
// by an earlier opposite one (then neither propagates), the entry's
// matches count before the update, and the entry itself when it remains
// in the table (valid until the table's next Add) — nil when the update
// unlinked it, and the caller owes the stored token's reference. A pair
// is built into a token only when no entry holds it — a delete ahead of
// its insert, whose pending cancel must hold the token that insert will
// look for. A token-form tok brings a reference: a new entry keeps it,
// anything else releases it.
func (w *worker) updateLeft(b *bucket.Buckets[leftEntry], k, id uint64, tok *rete.Token, ext *ops5.WME, dir ops5.ChangeKind) (stored *rete.Token, e *leftEntry, hadMatches int32, cancelled bool) {
	delta := int32(1)
	if dir == ops5.Delete {
		delta = -1
	}
	prev := int32(-1)
	for i := b.Head(k); i >= 0; prev, i = i, b.Next(i) {
		e = b.At(i)
		if e.id != id || !rete.ExtEqual(e.tok, tok, ext) {
			continue
		}
		stored, hadMatches = e.tok, e.matches
		if ext == nil {
			w.release(tok)
		}
		cancelled = annihilated(&e.count, delta)
		if e.count == 0 {
			b.Unlink(k, prev, i)
			e = nil
		}
		return stored, e, hadMatches, cancelled
	}
	if ext != nil {
		nt := w.token()
		tok.ExtendInto(nt, ext)
		nt.Hold(1)
		tok = nt
	}
	i := b.Add(k, leftEntry{tok: tok, id: id, count: delta})
	return tok, b.At(i), 0, delta < 0
}

// annihilated applies delta to a multiset count and reports whether the
// operation cancelled against an earlier opposite one: an insert takes
// effect only if it leaves the count positive, a delete only if it
// found it positive.
func annihilated(count *int32, delta int32) bool {
	*count += delta
	if delta > 0 {
		return *count <= 0
	}
	return *count < 0
}

// updateRight is updateLeft for a right table: WMEs are identified by
// time tag.
func updateRight(b *bucket.Buckets[rightEntry], k uint64, wme *ops5.WME, dir ops5.ChangeKind) (cancelled bool) {
	delta := int32(1)
	if dir == ops5.Delete {
		delta = -1
	}
	prev := int32(-1)
	for i := b.Head(k); i >= 0; prev, i = i, b.Next(i) {
		e := b.At(i)
		if e.wme.TimeTag != wme.TimeTag {
			continue
		}
		cancelled = annihilated(&e.count, delta)
		if e.count == 0 {
			b.Unlink(k, prev, i)
		}
		return cancelled
	}
	b.Add(k, rightEntry{wme: wme, count: delta})
	return delta < 0
}

// mergeKey folds a terminal into the identity hash of tok — of tok
// extended by wme, when wme is non-nil: one word that differs between
// any two deltas of different instantiations, hash collisions apart, and
// is the same whichever form names the token.
func mergeKey(term *rete.Terminal, tok *rete.Token, wme *ops5.WME) uint64 {
	return tok.ExtIDHash(wme) ^ uint64(term.ID)
}

// deltaCmp orders pending deltas by (merge key, terminal, token identity)
// so that the flush merge can group equal instantiations with one sorted
// pass. Equal elements (same terminal, same time-tag list) are exactly
// the deltas that merge; terminal and time tags are read only to tell a
// key collision from a repeat.
func deltaCmp(a, b pendingDelta) int {
	if a.key != b.key {
		if a.key < b.key {
			return -1
		}
		return 1
	}
	if c := cmp.Compare(a.term.ID, b.term.ID); c != 0 {
		return c
	}
	n := a.size()
	if c := cmp.Compare(n, b.size()); c != 0 {
		return c
	}
	for i := 0; i < n; i++ {
		if c := cmp.Compare(a.at(i).TimeTag, b.at(i).TimeTag); c != 0 {
			return c
		}
	}
	return 0
}

// flush applies the batch's conflict-set deltas through OnInsert and
// OnRemove and returns how many instantiations entered and left the
// conflict set.
//
// A batch the caller ran alone (batchLoop) produced its deltas as the
// serial matcher would have, each instantiation's insert ahead of its
// delete, so they are announced one by one as they stand.
// Any other batch may hold a delete ahead of the insert it undoes, or
// the two on different lanes: the lanes' deltas are merged — sorted, so
// that equal instantiations sit together and the order is the same on
// every run — and only the net survivors are instantiated; insert/delete
// churn within the batch never materialises one.
func (m *Matcher) flush(solo bool) (ins, rem int64) {
	if solo {
		w := &m.sched.workers[0]
		for _, d := range w.pending {
			if d.dir == ops5.Insert {
				ins++
			} else {
				rem++
			}
			m.announce(d, d.dir)
		}
		clear(w.pending) // release token references
		w.pending = w.pending[:0]
		return ins, rem
	}
	buf := m.flushBuf[:0]
	for wi := range m.sched.workers {
		w := &m.sched.workers[wi]
		buf = append(buf, w.pending...)
		clear(w.pending)
		w.pending = w.pending[:0]
	}
	slices.SortFunc(buf, deltaCmp)

	for i := 0; i < len(buf); {
		j, net := i, 0
		for ; j < len(buf) && deltaCmp(buf[i], buf[j]) == 0; j++ {
			if buf[j].dir == ops5.Insert {
				net++
			} else {
				net--
			}
		}
		switch {
		case net > 0:
			ins++
			m.announce(buf[i], ops5.Insert)
		case net < 0:
			rem++
			m.announce(buf[i], ops5.Delete)
		}
		i = j
	}
	clear(buf) // release token references
	m.flushBuf = buf[:0]
	return ins, rem
}

// announce hands one conflict-set delta to its callback: an insert's
// instantiation is built and filed in the live table, a removal's is
// the one its insert filed.
func (m *Matcher) announce(d pendingDelta, dir ops5.ChangeKind) {
	switch {
	case dir == ops5.Insert && m.OnInsert != nil:
		m.OnInsert(m.live.Insert(d.term, d.tok, d.wme))
	case dir == ops5.Delete && m.OnRemove != nil:
		m.OnRemove(m.live.Take(d.term, d.tok, d.wme))
	}
}
