package engine

// Event facts and the logical clock. A working-memory element inserted
// with a numeric ^__ttl N field is an event: it expires — is retracted
// by the engine through the ordinary matcher delete path — once the
// engine's logical clock has advanced N ticks past the insert. The
// clock is logical, never wall time: it advances by one per
// recognize-act cycle (Step) and jumps forward to ingest timestamps
// (AdvanceClock). Determinism rule: every expiry is a function of
// (insert-time clock, N, clock advances), all of which the WAL records,
// so crash recovery and cluster replicas reproduce the exact same
// retractions at the exact same ticks without re-deciding anything —
// replay applies logged expiry deletes and never expires on its own.

import (
	"cmp"
	"slices"

	"repro/internal/ops5"
)

// ttlEntry schedules one expiry: the element with time tag tag is due
// when the logical clock reaches deadline.
type ttlEntry struct {
	deadline int64
	tag      int
}

// before orders entries by (deadline, tag). The secondary tag order
// makes each expiry batch deterministic, which the WAL and the
// recovery-parity tests rely on.
func (a ttlEntry) before(b ttlEntry) bool {
	if a.deadline != b.deadline {
		return a.deadline < b.deadline
	}
	return a.tag < b.tag
}

// ttlIndex tracks pending expiries: a min-heap of entries in before
// order, and live, the number of them whose element is still in working
// memory. Cancellation reads that liveness instead of keeping a second
// index: an element retracted before its deadline (by a rule, a client
// or a modify) leaves its entry in the heap, and the entry is dropped
// when it surfaces, because its tag is no longer in working memory and
// tags are never reused. Every live element carrying a numeric ^__ttl
// has exactly one entry: trackTTL pushes it at the insert, or
// RestoreExpiries from the table Expiries wrote.
type ttlIndex struct {
	h    []ttlEntry
	live int
	// batch is ExpireDue's delete batch, reused from tick to tick:
	// nothing the batch reaches keeps the slice (working memory and the
	// matchers keep the elements, the change-log sink encodes the batch
	// before it returns).
	batch []ops5.Change
}

func (x *ttlIndex) push(e ttlEntry) {
	h := append(x.h, e)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h[i].before(h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	x.h = h
}

// pop removes and returns the first entry; the heap must not be empty.
func (x *ttlIndex) pop() ttlEntry {
	h := x.h
	top, n := h[0], len(h)-1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && h[r].before(h[m]) {
			m = r
		}
		if !h[m].before(h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	x.h = h
	return top
}

// Expiries returns the live expiry table — parallel slices of time tag
// and deadline, sorted by tag — for snapshotting. Deadlines are not
// derivable from the ^__ttl field alone (the insert-time clock is
// gone), so snapshots persist the table itself.
func (e *Engine) Expiries() (tags []int, deadlines []int64) {
	if e.ttl.live == 0 {
		return nil, nil
	}
	live := make([]ttlEntry, 0, e.ttl.live)
	for _, en := range e.ttl.h {
		if _, ok := e.WM.Get(en.tag); ok {
			live = append(live, en)
		}
	}
	slices.SortFunc(live, func(a, b ttlEntry) int { return cmp.Compare(a.tag, b.tag) })
	tags, deadlines = make([]int, len(live)), make([]int64, len(live))
	for i, en := range live {
		tags[i], deadlines[i] = en.tag, en.deadline
	}
	return tags, deadlines
}

// RestoreExpiries primes the expiry index from a recovered snapshot's
// table (see Expiries). Like Restore, it must run on a freshly
// constructed engine, after Restore put the elements back; the caller
// also restores Clock and Expired.
func (e *Engine) RestoreExpiries(tags []int, deadlines []int64) {
	for i, tag := range tags {
		e.ttl.push(ttlEntry{deadline: deadlines[i], tag: tag})
		if _, ok := e.WM.Get(tag); ok {
			e.ttl.live++
		}
	}
}

// PendingExpiries reports how many live elements await expiry (the
// psmd_ttl_pending gauge).
func (e *Engine) PendingExpiries() int { return e.ttl.live }

// trackTTL maintains the expiry index across one committed batch:
// inserts carrying a numeric ^__ttl N schedule an expiry at Clock+N
// (N < 1 clamps to 1 — an event lives at least one tick), and deletes of
// such elements leave the live count (their entries lapse in the heap).
// Runs after working memory assigned tags, on both the live apply path
// and WAL replay — replay recomputes the same deadlines because the
// caller restored Clock from the record first.
func (e *Engine) trackTTL(changes []ops5.Change) {
	for _, ch := range changes {
		v := ch.WME.GetID(ops5.TTLAttr)
		if v.Kind != ops5.NumValue {
			continue
		}
		switch ch.Kind {
		case ops5.Delete:
			e.ttl.live--
		case ops5.Insert:
			n := int64(v.Num)
			if n < 1 {
				n = 1
			}
			e.ttl.push(ttlEntry{deadline: e.Clock + n, tag: ch.WME.TimeTag})
			e.ttl.live++
		}
	}
}

// ExpireDue retracts every event whose deadline the clock has reached,
// as one delete batch in (deadline, tag) order through the normal apply
// path — the matcher sees ordinary deletes, dependent instantiations
// leave the conflict set, and the change-log sink records the batch so
// recovery and replicas reproduce it. Returns the number of elements
// retracted.
func (e *Engine) ExpireDue() int {
	batch := e.ttl.batch[:0]
	for len(e.ttl.h) > 0 && e.ttl.h[0].deadline <= e.Clock {
		if w, ok := e.WM.Get(e.ttl.pop().tag); ok {
			batch = append(batch, ops5.Change{Kind: ops5.Delete, WME: w})
		}
	}
	if len(batch) == 0 {
		return 0
	}
	e.Expired += len(batch)
	e.applyBatch(batch, nil)
	clear(batch) // the retracted elements are garbage; do not pin them
	e.ttl.batch = batch[:0]
	return len(batch)
}

// AdvanceClock moves the logical clock forward to at least t (it never
// goes backward) and retracts whatever came due, returning the number
// of expiries. A pure advance — clock moved, nothing due — still
// reaches the change-log sink as an empty batch: if it were not
// persisted, a crash would rewind the clock and later events would
// compute different deadlines than the uninterrupted run.
func (e *Engine) AdvanceClock(t int64) int {
	if t <= e.Clock {
		return 0
	}
	e.Clock = t
	n := e.ExpireDue()
	if n == 0 && e.Sink != nil {
		e.Sink(nil, nil)
	}
	return n
}
