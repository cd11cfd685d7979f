// Package sym implements the global symbol interner behind the columnar
// working-memory representation: every class name, attribute name and
// symbolic atom in the system maps to a dense uint32 ID, assigned once,
// process-wide. Matchers compare and hash IDs instead of strings — an
// equality join probe costs one integer compare instead of a string
// hash — and working memory stores pointer-light rows whose symbol
// columns are plain integer slices.
//
// The table is two-way (Intern and Name) and append-only: symbols are
// never removed, so an ID is valid for the life of the process. Reads
// on both directions are lock-free — Name loads an atomically published
// slice header, Lookup hits a sync.Map — which matters because the
// parallel matcher's workers resolve symbols concurrently with an
// engine goroutine interning new ones.
//
// IDs are process-local. Anything that crosses a process boundary
// carries names: the HTTP JSON surface as strings, and a durable
// snapshot or WAL record (shipped verbatim to replicas) as a table of
// the names it uses, which the loader re-interns (internal/durable).
package sym

import (
	"sync"
	"sync/atomic"
)

// ID is a dense symbol identifier. The zero ID is None — "no symbol" —
// and is never assigned to an interned string (including the empty
// string, which interns like any other).
type ID uint32

// None is the reserved null symbol ID.
const None ID = 0

// Table is an append-only two-way string↔ID map. The zero Table is not
// ready for use; construct with NewTable. Most callers use the
// package-level default table.
type Table struct {
	mu     sync.Mutex
	byName sync.Map                 // string -> ID
	names  atomic.Pointer[[]string] // index = ID; names[0] is the None placeholder
}

// NewTable returns an empty table whose first assigned ID is 1.
func NewTable() *Table {
	t := &Table{}
	initial := make([]string, 1, 64) // names[0] = "" placeholder for None
	t.names.Store(&initial)
	return t
}

// Intern returns the ID for s, assigning the next dense ID on first
// sight. Safe for concurrent use; the fast path (already-interned
// symbol) is a single lock-free map load.
func (t *Table) Intern(s string) ID {
	if v, ok := t.byName.Load(s); ok {
		return v.(ID)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// Double-check under the lock: another goroutine may have won.
	if v, ok := t.byName.Load(s); ok {
		return v.(ID)
	}
	cur := *t.names.Load()
	id := ID(len(cur))
	next := append(cur, s)
	// Publishing the new header before the byName entry gives readers
	// that learn an ID from Lookup a names slice long enough to resolve
	// it: the sync.Map store is the release, names.Load the acquire.
	t.names.Store(&next)
	t.byName.Store(s, id)
	return id
}

// Lookup returns the ID for s without interning; ok is false when s has
// never been interned. Lock-free.
func (t *Table) Lookup(s string) (ID, bool) {
	if v, ok := t.byName.Load(s); ok {
		return v.(ID), true
	}
	return None, false
}

// LookupBytes is Lookup for a name held as bytes, such as a span of a
// request body: a hit costs no allocation for names up to 32 bytes
// (the conversion is a stack copy), and Name(id) then yields the
// table's own string.
func (t *Table) LookupBytes(b []byte) (ID, bool) { return t.Lookup(string(b)) }

// Name returns the string for id, or "" for None or an ID the table has
// not (yet) assigned. Lock-free.
func (t *Table) Name(id ID) string {
	names := *t.names.Load()
	if int(id) < len(names) {
		return names[id]
	}
	// An ID can arrive ahead of this goroutine's view of the table only
	// through an unsynchronized channel; one locked retry makes Name
	// total without putting a lock on the hot path.
	t.mu.Lock()
	names = *t.names.Load()
	t.mu.Unlock()
	if int(id) < len(names) {
		return names[id]
	}
	return ""
}

// Len returns the number of assigned IDs plus one (the None slot):
// valid IDs are 1..Len()-1.
func (t *Table) Len() int { return len(*t.names.Load()) }

// Names returns the current table contents indexed by ID, with
// Names()[0] the None placeholder. The returned slice is a consistent
// snapshot and must be treated as read-only — it is the live published
// header, so reading the table never stops interning.
func (t *Table) Names() []string { return *t.names.Load() }

// Default is the process-global table used by ops5 values and working
// memory. Everything in one process shares it, so IDs compare across
// sessions, matchers and snapshots taken in this process.
var Default = NewTable()

// Intern interns s in the default table.
func Intern(s string) ID { return Default.Intern(s) }

// Lookup looks s up in the default table without interning.
func Lookup(s string) (ID, bool) { return Default.Lookup(s) }

// LookupBytes looks b up in the default table without interning.
func LookupBytes(b []byte) (ID, bool) { return Default.LookupBytes(b) }

// Name resolves id in the default table.
func Name(id ID) string { return Default.Name(id) }

// Len returns the default table's Len.
func Len() int { return Default.Len() }

// Names returns the default table's read-only snapshot.
func Names() []string { return Default.Names() }
