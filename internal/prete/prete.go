// Package prete implements the paper's core contribution: the parallel
// Rete algorithm of §4-5, exploiting parallelism at the granularity of
// individual node activations.
//
// The matcher is the parallel executor of a rete.Plan — the same
// immutable compiled network the serial matcher of internal/rete runs.
// It reads the plan's constant-test tree, node descriptors, memory keys,
// join-key hashes and test chains as they are, and owns only what
// executing them in parallel needs: lock-striped memories, the tokens
// they file and a scheduler. With one lane it is also Rete on one
// processor, which is what psmd serves as rete.
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
//     conflict-set deltas batch per worker until the flush merge. Every
//     output an insert makes is built into a recycled token, one for
//     each left memory that files it (or one leaf that only terminals
//     read), and retired tokens return to the matcher's pool at the
//     next batch barrier (tokens.go). A terminal's delta reaches the
//     conflict set as a match spelled in scratch (rete.Terminal.Match),
//     not an instantiation.
//   - A delete walks what its insert built (tree-based removal,
//     Doorenbos 1995): a token lists the tokens built on it, and a
//     right entry the tokens built with its WME. A positive join's
//     delete, from either input, unlinks those tokens and emits their
//     deletes; it evaluates no join test, hashes no key and walks no
//     chain, since each token knows its own left entry. Only a
//     not-node's right activation still tests its bucket, to count
//     each token's matches.
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
//     reaches a downstream node). An early delete therefore leaves a
//     pending cancel that annihilates the late insert, and neither is
//     propagated: on the token itself in a left memory (its slot), as
//     an entry in a right memory. An insert never searches for one in a
//     left memory, and in a right memory only on a lane that shares
//     the batch. The conflict set is updated with counted deltas and
//     flushed at the end of the batch — the batch boundary is the
//     paper's synchronization step between recognize-act phases. A
//     batch the caller ran alone ran in the serial matcher's order and
//     has nothing to cancel: it takes no stripe lock, and its deltas are
//     announced as they stand (flush).
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

// SerialBypassThreshold is the default seeded-activation count below
// which a batch runs inline on the caller instead of borrowing helpers.
// Re-derived on the 2-CPU box by re-cutting the fan-out script into
// batches of 1 to 384 changes (EXPERIMENTS.md E28): a wake
// round-trip plus the barrier costs about 30µs there and one seeded
// activation with its downstream work 1-2µs, so two lanes draw level
// with the caller running the batch alone between 70 and 150 seeded
// activations (12 to 24 changes of that script). The threshold sits at
// the top of that range so that a batch sent to the pool is not slower
// than the same batch inline.
const SerialBypassThreshold = 128

// emit is one output of an activation: a token on its way to the
// conflict set, through node's terminals, and to the left memory grp.
// Either may be nil: a leaf token goes to the terminals alone, a
// not-node's pass-through copy to its memory alone, and a not-node
// announces its own left token (tok, node the not-node, grp nil).
type emit struct {
	node *pnode
	grp  *group
	tok  *token
	dir  ops5.ChangeKind
}

// pendingDelta is one conflict-set delta, batched per worker during a
// batch and announced at flush — every one of a batch the caller ran
// alone, the net survivors of the merge otherwise.
type pendingDelta struct {
	term *rete.Terminal
	tok  *token
	key  uint64 // mergeKey: the merge sorts on it without touching the tokens
	dir  ops5.ChangeKind
}

// leftEntry files a token in a left table. prev is the entry ahead of
// it in its chain (-1 at the head), so the token's delete unlinks it
// without walking the chain. For not-nodes, matches counts the matching
// right WMEs.
type leftEntry struct {
	tok     *token
	prev    int32
	matches int32
}

// rightEntry files a WME in a right table. toks lists the tokens a
// positive join built with the WME (token.rnext), which its delete
// removes without a test; it is &pendingCancel while the entry stands
// for a delete that arrived ahead of its insert, on another lane.
type rightEntry struct {
	wme  *ops5.WME
	toks *token
}

// pendingCancel marks a right entry that is a pending cancel.
var pendingCancel token

// stripes is the number of lock stripes per keyed left memory of a
// matcher with more than one lane. A one-lane matcher's memories have
// one stripe each: no two activations ever contend for them.
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
	// and scans every slot of the opposite table. Every group of a
	// one-lane matcher has one stripe.
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

	// down are the left memories fed by this node's output tokens (its
	// output beta memory's groups); terminals announce conflict-set
	// deltas.
	down      []group
	terminals []*rete.Terminal
	// orphans is set on a join below the dummy top: its left token is
	// the empty token every such join shares, which never dies, so its
	// outputs are not listed under it.
	orphans bool
}

// first and next walk the candidates of a probe: key's chain in a keyed
// table, every slot of an unkeyed one (free slots hold a zero entry and
// are skipped with the pending cancels).
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
	// candidates only, for nodes with an equality key. A positive join's
	// delete tests nothing (it walks what its insert built).
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

// Work is the matcher's memory work in the paper's unit, counted
// rather than timed: each count is split by the direction of the
// activation that did it, indexed by ops5.ChangeKind (Insert, Delete).
// Each lane counts into its own books and Apply folds them at the
// barrier, so counting shares nothing between lanes.
type Work struct {
	// Changes counts the WM changes applied.
	Changes [2]int64
	// JoinTests counts (token, WME) pairs a join or not-node tested.
	JoinTests [2]int64
	// LeftSteps and RightSteps count the table entries visited while
	// looking an entry up by identity: a stored token (or its pending
	// cancel) in a left table, a WME in a right table.
	LeftSteps  [2]int64
	RightSteps [2]int64
	// Built counts tokens built; Freed counts tokens retired.
	Built [2]int64
	Freed [2]int64
}

func (w *Work) add(o *Work) {
	for d := range w.JoinTests {
		w.Changes[d] += o.Changes[d]
		w.JoinTests[d] += o.JoinTests[d]
		w.LeftSteps[d] += o.LeftSteps[d]
		w.RightSteps[d] += o.RightSteps[d]
		w.Built[d] += o.Built[d]
		w.Freed[d] += o.Freed[d]
	}
}

// Config configures a parallel matcher.
type Config struct {
	// Workers caps the scheduler's lanes; <= 0 selects GOMAXPROCS, and
	// no more than GOMAXPROCS lanes are ever built, since no more could
	// run at once.
	Workers int
	// SerialThreshold overrides the seeded-activation count below which
	// a batch runs inline on the caller instead of borrowing helpers
	// from the lane pool: 0 selects the default (SerialBypassThreshold),
	// a negative value disables the bypass so every multi-lane batch
	// offers its lanes (used by scheduler tests and measurements).
	SerialThreshold int
}

// Matcher is the parallel Rete matcher. It satisfies engine.Matcher.
type Matcher struct {
	plan *rete.Plan
	// nodes mirrors plan.Joins (ascending node ID); groups are the left
	// memories, a beta memory's consecutive; roots maps an alpha memory's
	// index to the nodes on its right-input successor list. NewOnPlan
	// cuts every node's and group's lists out of a few backing arrays.
	nodes  []pnode
	groups []group
	roots  [][]*pnode
	sched  scheduler
	// empty is the dummy top's empty token, which the one left memory
	// of the joins below the top holds (never deleted).
	empty token

	// Sink receives the conflict-set deltas at the end of each Apply
	// batch, on the calling goroutine. It starts as the embedded Hooks,
	// whose OnInsert and OnRemove receive them as instantiations. Set
	// either before Apply.
	Sink ops5.MatchSink
	ops5.Hooks

	// mu guards everything below: the books Apply closes at each batch
	// barrier, which Stats, NodeProfile, Books and Loss read. Workers
	// never touch them — they count on their own lane (worker.laneBooks,
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
	// outputs into (tokens.go).
	pool tokenPool
	// seedMems, flushBuf and match are Apply-only scratch, reused across
	// batches so seeding and flushing allocate nothing steady-state.
	seedMems []*rete.AlphaNode
	flushBuf []pendingDelta
	match    []*ops5.WME
	// inline is held by Apply while the caller runs a batch alone, in
	// place of the stripe locks it then skips, and by IndexInfo.
	inline sync.Mutex
}

// NewWithConfig compiles the productions and builds the parallel node
// graph over the plan (NewOnPlan).
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
//
// A session is built per create, so the node graph costs a fixed number
// of allocations whatever the plan's size: the nodes, the groups, their
// stripes, the right tables, the member and root lists and the per-node
// profiles are each cut out of one backing array.
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
		bypass = SerialBypassThreshold
	case bypass < 0:
		bypass = 0
	}
	n, nb := len(plan.Joins), len(plan.Betas)
	m := &Matcher{
		plan:        plan,
		nodes:       make([]pnode, n),
		lanes:       make([]laneBooks, workers),
		bypassBelow: bypass,
	}
	m.Sink = &m.Hooks
	prof := make([]rete.NodeProf, (workers+1)*n)
	m.prof = prof[:n:n]
	m.sched.workers = make([]worker, workers)
	for i := range m.sched.workers {
		w := &m.sched.workers[i]
		w.prof, w.pool = prof[(i+1)*n:(i+2)*n:(i+2)*n], &m.pool
	}

	// Number the left memories beta memory by beta memory: the positive
	// joins reading one beta memory by the same key share one, and each
	// not-node and each join below the dummy top has its own. The groups
	// reading beta memory b are then m.groups[first[b]:first[b+1]], the
	// down list of the join whose output b is.
	tmp := make([]int32, 2*n+nb+1)
	groupOf, first, size := tmp[:n], tmp[n:n+nb+1], tmp[n+nb+1:]
	ng := int32(0)
	for _, b := range plan.Betas {
		first[b.Index] = ng
	joins:
		for k, j := range b.Joins {
			if j.Kind == rete.JoinPositive && b.Index != 0 {
				for _, o := range b.Joins[:k] {
					if o.Kind == rete.JoinPositive && o.LeftKey == j.LeftKey {
						groupOf[j.Index] = groupOf[o.Index]
						size[groupOf[o.Index]]++
						continue joins
					}
				}
			}
			groupOf[j.Index], size[ng] = ng, 1
			ng++
		}
	}
	first[nb] = ng

	// A keyed group of a matcher with more than one lane has stripes
	// stripes; any other group has one.
	m.groups = make([]group, ng)
	for _, j := range plan.Joins {
		m.groups[groupOf[j.Index]].leftHash = j.LeftHash
	}
	stripesOf := func(g *group) int {
		if g.leftHash != nil && workers > 1 {
			return stripes
		}
		return 1
	}
	nst, nright := 0, 0
	for gi := range m.groups {
		k := stripesOf(&m.groups[gi])
		nst += k
		nright += k * int(size[gi])
	}
	stripeArr := make([]stripe, nst)
	rightArr := make([]bucket.Buckets[rightEntry], nright)
	lists := make([]*pnode, 2*n) // the groups' members, then the roots
	for gi := range m.groups {
		g := &m.groups[gi]
		k, c := stripesOf(g), int(size[gi])
		g.stripes, stripeArr = stripeArr[:k:k], stripeArr[k:]
		g.members, lists = lists[:0:c], lists[c:]
	}
	for _, b := range plan.Betas {
		for _, j := range b.Joins {
			g := &m.groups[groupOf[j.Index]]
			k := len(g.stripes)
			pn := &m.nodes[j.Index]
			*pn = pnode{
				idx: j.Index, join: j, grp: g,
				rightHash: j.RightHash, terminals: j.Out.Terminals,
				right:   rightArr[:k:k],
				down:    m.groups[first[j.Out.Index]:first[j.Out.Index+1]],
				orphans: b.Index == 0,
			}
			rightArr = rightArr[k:]
			g.members = append(g.members, pn)
		}
	}
	// Prime the memories fed by the dummy top with the empty token.
	// These joins are positive (a production's first condition element
	// is) and have no earlier CE to bind variables, hence no equality
	// tests and a single stripe. No left activation reaches them, so
	// nothing writes their table after this: they all share one, and
	// their outputs are not listed under the empty token, which never
	// dies (pnode.orphans).
	if top := m.groups[first[0]:first[1]]; len(top) > 0 {
		left := &top[0].stripes[0].left
		m.empty.slot = left.Add(m.empty.IDHash(), leftEntry{tok: &m.empty, prev: -1}) + 1
		for gi := range top[1:] {
			top[1+gi].stripes[0].left = *left
		}
	}
	m.roots = make([][]*pnode, len(plan.Alphas))
	for _, a := range plan.Alphas {
		r := lists[:0:len(a.Succs)]
		for _, j := range a.Succs {
			r = append(r, &m.nodes[j.Index])
		}
		m.roots[a.Index], lists = r, lists[len(r):]
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

// Work returns the memory work of every completed batch, summed over
// the lanes.
func (m *Matcher) Work() Work {
	m.mu.Lock()
	defer m.mu.Unlock()
	var t Work
	for i := range m.lanes {
		t.add(&m.lanes[i].work)
	}
	return t
}

// MatchStats reports Stats in the matcher-neutral form, the
// scheduler's counters included.
func (m *Matcher) MatchStats() obs.MatchStats {
	s := m.Stats()
	return obs.MatchStats{
		Changes:         s.Changes,
		Comparisons:     s.Comparisons,
		ConflictInserts: s.ConflictInserts,
		ConflictRemoves: s.ConflictRemoves,
		Tasks:           s.Tasks,
		Wakeups:         s.Wakeups,
		InlineBatches:   s.InlineBatches,
		Workers:         s.PerWorker,
	}
}

// IndexInfo reports the hash-bucketed node memories: the two-input
// nodes by whether they key their memories on an equality join key, and
// the live (key, side) buckets. It holds the inline lock, so no batch
// runs alone meanwhile, and takes each stripe lock in turn — never more
// than one at a time — so it is safe to call concurrently with Apply;
// the numbers are then a point-in-time sample of a moving target, not a
// consistent snapshot.
func (m *Matcher) IndexInfo() obs.IndexReport {
	m.inline.Lock()
	defer m.inline.Unlock()
	var info obs.IndexReport
	add := func(buckets, maxChain int) {
		info.Buckets += buckets
		info.MaxBucket = max(info.MaxBucket, maxChain)
	}
	for gi := range m.groups {
		g := &m.groups[gi]
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
	for i := range m.nodes {
		pn := &m.nodes[i]
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
// conflict-set deltas to the Sink before returning. The
// caller runs lane 0; a batch big enough to amortise the hand-off
// offers the other lanes to idle helpers of the process's lane pool.
// Apply must not be called concurrently with itself.
func (m *Matcher) Apply(changes []ops5.Change) {
	t0 := nanotime()
	s := &m.sched
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
		s.workers[0].work.Changes[ch.Kind]++
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
			m.inline.Lock()
		} else {
			s.wakeups.Add(1)
		}
		s.workers[0].solo = solo
		m.batchLoop(&s.workers[0])
		if solo {
			m.inline.Unlock()
		}
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
// lock is contended; a lane running the batch alone takes none.
func (w *worker) lock(st *stripe) {
	if w.solo || st.mu.TryLock() {
		return
	}
	w.clock.stamp(phaseMatch)
	st.mu.Lock()
	w.clock.stamp(phaseLockWait)
}

// unlock releases a stripe lock that lock took.
func (w *worker) unlock(st *stripe) {
	if !w.solo {
		st.mu.Unlock()
	}
}

// runRight executes the right activation of node n by WME wme: update
// n's right bucket for the WME's join key and, under the same stripe
// lock, act on the shared left bucket. A matching pair always shares the
// key, so that bucket is the complete candidate set. A positive join's
// insert tests the bucket's tokens and builds its outputs; its delete
// tests nothing and removes the tokens the WME's entry lists. A
// not-node tests the bucket either way, to count each token's matches.
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
	right := &n.right[si]
	emits, out := w.emits, len(w.emits)
	tested := 0
	w.lock(st)
	ri, prev, live := w.updateRight(right, own, wme, dir)
	switch {
	case !live:
		w.cancellations++
	case n.join.Kind == rete.JoinPositive && dir == ops5.Delete:
		re := right.At(ri)
		for c := re.toks; c != nil; {
			nx := c.rnext
			c.unlinkKid()
			c.rnext, c.rprev = nil, nil
			emits = w.kill(emits, c)
			c = nx
		}
		right.Unlink(own, prev, ri)
	default:
		negated := n.join.Kind == rete.JoinNegative
		for i := first(&st.left, keyed, key); i >= 0; i = next(&st.left, keyed, i) {
			e := st.left.At(i)
			if e.tok == nil {
				continue
			}
			tested++
			if !n.join.Eval(&e.tok.Token, wme) {
				continue
			}
			switch {
			case !negated:
				emits = w.joined(emits, n, e.tok, wme, si, ri)
			case dir == ops5.Insert:
				if e.matches++; e.matches == 1 {
					emits = w.block(emits, n, e.tok)
				}
			default:
				if e.matches--; e.matches == 0 {
					emits = w.pass(emits, n, e.tok)
				}
			}
		}
		if dir == ops5.Delete {
			right.Unlink(own, prev, ri)
		}
	}
	w.unlock(st)
	w.executed++
	w.comparisons += int64(tested)
	w.work.JoinTests[dir] += int64(tested)
	w.prof[n.idx].Activations++
	w.prof[n.idx].TokensTested += int64(tested)
	w.emits = emits
	m.propagate(w, out)
}

// joined builds positive join n's outputs for the parent token and the
// WME of right entry ri of stripe si, which pass it: one token for each
// left memory below n, or one leaf token when only terminals read it.
// Each is listed under its parent (unless n orphans its outputs) and
// under the right entry, and the first announces to n's terminals. It
// runs under stripe si's lock, which guards both lists.
func (w *worker) joined(emits []emit, n *pnode, parent *token, wme *ops5.WME, si int, ri int32) []emit {
	w.prof[n.idx].PairsEmitted++
	re := n.right[si].At(ri)
	for k := range max(1, len(n.down)) {
		c := w.build(n, k, parent, wme)
		c.rsi, c.ridx = uint8(si), ri
		if c.rnext = re.toks; c.rnext != nil {
			c.rnext.rprev = c
		}
		re.toks = c
		emits = append(emits, c.output(ops5.Insert))
	}
	return emits
}

// pass is not-node n's output for its left token tok while no right WME
// matches it: tok announced to n's terminals, and a copy of tok listed
// under it for each left memory below n.
func (w *worker) pass(emits []emit, n *pnode, tok *token) []emit {
	w.prof[n.idx].PairsEmitted++
	if len(n.terminals) > 0 {
		emits = append(emits, emit{node: n, tok: tok, dir: ops5.Insert})
	}
	for k := range n.down {
		emits = append(emits, w.build(n, k, tok, nil).output(ops5.Insert))
	}
	return emits
}

// block undoes pass when a right WME first matches not-node n's left
// token tok: tok's removal announced, and its copies removed.
func (w *worker) block(emits []emit, n *pnode, tok *token) []emit {
	w.prof[n.idx].PairsEmitted++
	if len(n.terminals) > 0 {
		emits = append(emits, emit{node: n, tok: tok, dir: ops5.Delete})
	}
	return w.killKids(emits, tok)
}

// build returns a new token built at node n for its k-th left memory
// below (a leaf when n feeds none): parent extended by wme, or a copy of
// parent when wme is nil (a not-node's), listed under parent unless n
// orphans its outputs. Its join key in that memory is computed here,
// once.
func (w *worker) build(n *pnode, k int, parent *token, wme *ops5.WME) *token {
	c := w.token(ops5.Insert)
	parent.ExtendInto(&c.Token, wme)
	c.node, c.down, c.slot, c.kids = n, int32(k), 0, nil
	c.announce = k == 0 && n.join.Kind == rete.JoinPositive && len(n.terminals) > 0
	c.rnext, c.rprev, c.ridx = nil, nil, -1
	c.next, c.pprev = nil, nil
	if k >= len(n.down) {
		c.down = -1
	} else if g := &n.down[k]; g.leftHash != nil {
		c.key = g.leftHash(&c.Token)
	} else {
		c.key = c.IDHash()
	}
	if !n.orphans {
		if c.next = parent.kids; c.next != nil {
			c.next.pprev = &c.next
		}
		parent.kids, c.pprev = c, &parent.kids
	}
	return c
}

// output is the token's own output in direction dir: to the left memory
// it is filed in and, if it announces, to its builder's terminals.
func (c *token) output(dir ops5.ChangeKind) emit {
	e := emit{tok: c, dir: dir}
	if c.down >= 0 {
		e.grp = &c.node.down[c.down]
	}
	if c.announce {
		e.node = c.node
	}
	return e
}

// kill emits the delete of token c, which its caller has already
// unlinked from its parent's list and its right entry's. A leaf, which no
// memory files, retires at once; a pending delta or emit may still read
// it until the batch's flush. The first token of a positive join's pair
// counts the pair's delete in the profile (a not-node counts its own, in
// block).
func (w *worker) kill(emits []emit, c *token) []emit {
	if c.down < 0 {
		w.retire(c, ops5.Delete)
	}
	if c.down <= 0 && c.node.join.Kind == rete.JoinPositive {
		w.prof[c.node.idx].PairsEmitted++
	}
	return append(emits, c.output(ops5.Delete))
}

// killKids removes every token built on tok: each leaves its right
// entry's list (its parent's, tok's, is dropped whole) and its delete is
// emitted. It runs under the stripe lock of tok's entry, which guards
// both lists.
func (w *worker) killKids(emits []emit, tok *token) []emit {
	for c := tok.kids; c != nil; {
		nx := c.next
		c.next, c.pprev = nil, nil
		if c.ridx >= 0 {
			if c.rprev != nil {
				c.rprev.rnext = c.rnext
			} else {
				c.node.right[c.rsi].At(c.ridx).toks = c.rnext
			}
			if c.rnext != nil {
				c.rnext.rprev = c.rprev
			}
			c.rnext, c.rprev = nil, nil
		}
		emits = w.kill(emits, c)
		c = nx
	}
	tok.kids = nil
	return emits
}

// unlinkKid takes c out of its parent's list of kids.
func (c *token) unlinkKid() {
	if c.pprev == nil {
		return
	}
	if *c.pprev = c.next; c.next != nil {
		c.next.pprev = c.pprev
	}
	c.next, c.pprev = nil, nil
}

// runLeft executes the left activation of group g by token tok: file it
// in (or remove it from) the shared left bucket once, under the stripe
// lock for its join key. An insert then scans each member's right
// bucket for that key and builds its outputs; a delete tests nothing and
// removes the tokens listed under tok. An insert or a delete that finds
// the other already arrived — a delete ahead of its insert, on another
// lane — annihilates with it: neither propagates.
func (m *Matcher) runLeft(g *group, tok *token, dir ops5.ChangeKind, w *worker) {
	keyed := g.leftHash != nil
	si := g.stripeOf(tok.key)
	st := &g.stripes[si]
	emits, out := w.emits, len(w.emits)
	w.lock(st)
	switch {
	case dir == ops5.Delete && tok.slot == 0:
		// Ahead of its insert: a pending cancel, held on the token.
		tok.slot = -1
		w.cancellations++
	case tok.slot < 0:
		// The insert the pending cancel undoes: the second to arrive
		// retires the token.
		tok.slot = 0
		w.retire(tok, dir)
		w.cancellations++
	case dir == ops5.Delete:
		i := tok.slot - 1
		e := st.left.At(i)
		for _, n := range g.members {
			w.prof[n.idx].Activations++
			if n.join.Kind == rete.JoinNegative && e.matches == 0 {
				emits = w.block(emits, n, tok)
			}
		}
		emits = w.killKids(emits, tok)
		unlinkLeft(&st.left, tok.key, i)
		w.retire(tok, dir)
	default:
		i := st.left.Add(tok.key, leftEntry{tok: tok, prev: -1})
		if nx := st.left.Next(i); nx >= 0 {
			st.left.At(nx).prev = i
		}
		tok.slot = i + 1
		for _, n := range g.members {
			tested := 0
			negated := n.join.Kind == rete.JoinNegative
			matches := int32(0)
			right := &n.right[si]
			for ri := first(right, keyed, tok.key); ri >= 0; ri = next(right, keyed, ri) {
				re := right.At(ri)
				if re.wme == nil || re.toks == &pendingCancel {
					continue
				}
				tested++
				if !n.join.Eval(&tok.Token, re.wme) {
					continue
				}
				matches++
				if !negated {
					emits = w.joined(emits, n, tok, re.wme, si, ri)
				}
			}
			if negated {
				st.left.At(i).matches = matches
				if matches == 0 {
					emits = w.pass(emits, n, tok)
				}
			}
			w.comparisons += int64(tested)
			w.work.JoinTests[dir] += int64(tested)
			w.prof[n.idx].Activations++
			w.prof[n.idx].TokensTested += int64(tested)
		}
	}
	w.unlock(st)
	w.executed++
	w.emits = emits
	m.propagate(w, out)
}

// unlinkLeft removes entry i, filed under key k, from left table b
// through its prev link, and keeps the next entry's prev link right.
func unlinkLeft(b *bucket.Buckets[leftEntry], k uint64, i int32) {
	prev, next := b.At(i).prev, b.Next(i)
	b.Unlink(k, prev, i)
	if next >= 0 {
		b.At(next).prev = prev
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
		if e.node == nil {
			continue
		}
		for _, term := range e.node.terminals {
			w.pending = append(w.pending, pendingDelta{term: term, tok: e.tok, key: mergeKey(term, e.tok), dir: e.dir})
		}
	}
	for i := out; i < top; i++ {
		if e := w.emits[i]; e.grp != nil {
			m.runLeft(e.grp, e.tok, e.dir, w)
		}
	}
	w.emits = w.emits[:out]
}

// updateRight applies an insert or delete of wme to right table b under
// key k on lane w, WMEs identified by time tag (an element is inserted
// at most once while it lives). It returns the entry's index and the
// one ahead of it in its chain, and whether the change is live: an
// insert filed, or a delete that found its WME, whose entry the caller
// unlinks once it has acted on it. A delete that finds no entry files a
// pending cancel — its insert is still on its way on another lane — and
// is not live; nor is that insert, which annihilates with it. Only a
// lane sharing the batch can meet a pending cancel, so an insert on a
// lane running the batch alone goes straight in.
func (w *worker) updateRight(b *bucket.Buckets[rightEntry], k uint64, wme *ops5.WME, dir ops5.ChangeKind) (i, prev int32, live bool) {
	prev, i = -1, -1
	if dir == ops5.Delete || !w.solo {
		i = b.Head(k)
	}
	for ; i >= 0; prev, i = i, b.Next(i) {
		w.work.RightSteps[dir]++
		e := b.At(i)
		if e.wme.TimeTag != wme.TimeTag {
			continue
		}
		if e.toks == &pendingCancel {
			b.Unlink(k, prev, i)
			return i, prev, false
		}
		return i, prev, true
	}
	if dir == ops5.Insert {
		return b.Add(k, rightEntry{wme: wme}), -1, true
	}
	return b.Add(k, rightEntry{wme: wme, toks: &pendingCancel}), -1, false
}

// mergeKey folds a terminal into the identity hash of tok: one word that
// differs between any two deltas of different instantiations, hash
// collisions apart.
func mergeKey(term *rete.Terminal, tok *token) uint64 {
	return tok.IDHash() ^ uint64(term.ID)
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
	aw, bw := a.tok.WMEs, b.tok.WMEs
	if c := cmp.Compare(len(aw), len(bw)); c != 0 {
		return c
	}
	for i := range aw {
		if c := cmp.Compare(aw[i].TimeTag, bw[i].TimeTag); c != 0 {
			return c
		}
	}
	return 0
}

// flush hands the batch's conflict-set deltas to the Sink and returns
// how many instantiations entered and left the conflict set.
//
// A batch the caller ran alone (batchLoop) produced its deltas as the
// serial matcher would have, each instantiation's insert ahead of its
// delete, so they are announced one by one as they stand.
// Any other batch may hold a delete ahead of the insert it undoes, or
// the two on different lanes: the lanes' deltas are merged — sorted, so
// that equal instantiations sit together and the order is the same on
// every run — and only the net survivors are announced; insert/delete
// churn within the batch never reaches the sink.
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

// announce hands one conflict-set delta to the sink, its match spelled
// in the matcher's scratch.
func (m *Matcher) announce(d pendingDelta, dir ops5.ChangeKind) {
	m.match = d.term.Match(m.match, &d.tok.Token, nil)
	if dir == ops5.Insert {
		m.Sink.InsertMatch(d.term.Production, m.match)
	} else {
		m.Sink.RemoveMatch(d.term.Production, m.match)
	}
}
