package server

import (
	"fmt"
	"sync"

	"repro/internal/ops5"
	"repro/internal/rete"
	"repro/internal/server/stats"
)

// The bounds of a server's compiled-program table. An entry keeps its
// source, parsed program and Rete plan alive: for the packs under
// benchmark/rules that is 11 to 17.5 bytes per source byte (16 KiB for
// chatter, 9 KiB for fraud, 31 KiB for manners, 1.11 MiB for the
// 300-rule dispatch; TestProgramTableRetainedBytes), so the byte bound
// holds the table to about 18 MiB. The count bound caps the entries an
// eviction scans; 64 Manners-sized entries keep 2 MiB. A source longer
// than the byte bound alone is compiled for its session and not kept.
const (
	maxCachedPrograms     = 64
	maxCachedProgramBytes = 1 << 20
)

// programTable maps a rule source to its parsed program and compiled
// Rete plan, so that every session of one source runs one compiled
// program, as every processor of §5's machine runs one network. The
// program and plan are only read once built (engine.Load clones the
// initial elements; Production.Validate rewrites no field whose value
// is unchanged), so a session keeps its own pointers and an entry the
// table evicts stays valid for the sessions that hold it.
//
// Entries are keyed by the full source text. A source is compiled once
// however many creates ask for it at the same time: the first inserts a
// pending entry and the others wait for it to finish. A source that
// fails to parse leaves the table; one that parses but fails Rete
// compilation stays, with its program for naive sessions and its
// compile error for Rete ones. Past either bound, the least recently
// used entry goes.
type programTable struct {
	mu      sync.Mutex
	entries map[string]*compiledProgram
	bytes   int
	clock   uint64

	compiles *stats.Counter
	cached   *stats.Gauge
}

// compiledProgram is one table entry. prog, plan and err are written
// before done closes and only read after; err with a non-nil prog is
// the Rete compile's.
type compiledProgram struct {
	prog    *ops5.Program
	plan    *rete.Plan
	err     error
	done    chan struct{}
	lastUse uint64
}

func newProgramTable(r *stats.Registry) *programTable {
	return &programTable{
		entries: make(map[string]*compiledProgram),
		compiles: r.Counter("psmd_program_compiles_total",
			"rule sources parsed and compiled to a Rete plan"),
		cached: r.Gauge("psmd_programs_cached",
			"compiled programs held for sessions of the same source"),
	}
}

// get returns src's parsed program and plan, compiling src unless the
// table holds it. A source that parses but fails Rete compilation
// returns its program, a nil plan and the compile error.
func (t *programTable) get(src string) (*ops5.Program, *rete.Plan, error) {
	t.mu.Lock()
	t.clock++
	if e := t.entries[src]; e != nil {
		e.lastUse = t.clock
		t.mu.Unlock()
		<-e.done
		return e.prog, e.plan, e.err
	}
	e := &compiledProgram{done: make(chan struct{}), lastUse: t.clock}
	keep := len(src) <= maxCachedProgramBytes
	if keep {
		t.entries[src] = e
		t.bytes += len(src)
		t.evict()
	}
	t.mu.Unlock()

	t.compiles.Inc()
	defer func() {
		if r := recover(); r != nil {
			// The creates waiting for this entry must neither block on
			// it nor build over it.
			e.prog, e.err = nil, fmt.Errorf("server: compiling the program panicked: %v", r)
			t.settle(src, e, keep)
			panic(r)
		}
	}()
	e.prog, e.err = ops5.Parse(src)
	if e.err == nil {
		e.plan, e.err = rete.CompilePlan(e.prog.Productions)
	}
	t.settle(src, e, keep)
	return e.prog, e.plan, e.err
}

// settle publishes a finished compile to the creates waiting for it,
// and drops the entry of a source that failed to parse.
func (t *programTable) settle(src string, e *compiledProgram, kept bool) {
	close(e.done)
	if e.prog == nil && kept {
		t.mu.Lock()
		if t.entries[src] == e {
			t.remove(src)
		}
		t.mu.Unlock()
	}
}

// evict drops least recently used entries until the table is within
// both bounds; the caller holds mu.
func (t *programTable) evict() {
	for len(t.entries) > maxCachedPrograms || t.bytes > maxCachedProgramBytes {
		var oldest string
		var oldestUse uint64
		for src, e := range t.entries {
			if oldestUse == 0 || e.lastUse < oldestUse {
				oldest, oldestUse = src, e.lastUse
			}
		}
		t.remove(oldest)
	}
	t.cached.Set(int64(len(t.entries)))
}

// remove drops src's entry; the caller holds mu.
func (t *programTable) remove(src string) {
	delete(t.entries, src)
	t.bytes -= len(src)
	t.cached.Set(int64(len(t.entries)))
}
