package sym

import (
	"fmt"
	"sync"
	"testing"
)

// TestInternRoundTrip pins the basic contract: interning is idempotent,
// IDs are dense starting at 1, and Name inverts Intern.
func TestInternRoundTrip(t *testing.T) {
	tb := NewTable()
	a := tb.Intern("goal")
	b := tb.Intern("state")
	if a != 1 || b != 2 {
		t.Fatalf("IDs not dense from 1: got %d, %d", a, b)
	}
	if again := tb.Intern("goal"); again != a {
		t.Fatalf("re-intern changed ID: %d != %d", again, a)
	}
	if got := tb.Name(a); got != "goal" {
		t.Fatalf("Name(%d) = %q, want goal", a, got)
	}
	if id, ok := tb.Lookup("state"); !ok || id != b {
		t.Fatalf("Lookup(state) = %d, %v", id, ok)
	}
	if id, ok := tb.Lookup("never-seen"); ok || id != None {
		t.Fatalf("Lookup of unknown symbol = %d, %v; want None, false", id, ok)
	}
	if id, ok := tb.LookupBytes([]byte("state")); !ok || id != b {
		t.Fatalf("LookupBytes(state) = %d, %v", id, ok)
	}
	if id, ok := tb.LookupBytes([]byte("never-seen")); ok || id != None {
		t.Fatalf("LookupBytes of unknown symbol = %d, %v; want None, false", id, ok)
	}
	name := []byte("state")
	if n := testing.AllocsPerRun(100, func() { tb.LookupBytes(name) }); n != 0 {
		t.Fatalf("LookupBytes hit: %v allocations, want 0", n)
	}
	if tb.Len() != 3 { // None slot + 2 symbols
		t.Fatalf("Len = %d, want 3", tb.Len())
	}
}

// TestInternEmptyString checks that "" interns like any other symbol —
// it gets a real (non-None) ID and round-trips. None's Name is also ""
// (the placeholder), which is fine: None is never produced by Intern,
// so the ambiguity only exists for callers who fabricate IDs.
func TestInternEmptyString(t *testing.T) {
	tb := NewTable()
	id := tb.Intern("")
	if id == None {
		t.Fatal("empty string interned as None")
	}
	if got, ok := tb.Lookup(""); !ok || got != id {
		t.Fatalf("Lookup(\"\") = %d, %v; want %d, true", got, ok, id)
	}
	if tb.Name(id) != "" {
		t.Fatalf("Name(%d) = %q, want empty", id, tb.Name(id))
	}
	if again := tb.Intern(""); again != id {
		t.Fatalf("re-intern of empty string changed ID: %d != %d", again, id)
	}
}

// TestInternManySymbols pushes the table past 65k entries: IDs must stay
// dense and resolvable well beyond any small-integer packing assumption
// (ID is uint32, not uint16).
func TestInternManySymbols(t *testing.T) {
	tb := NewTable()
	const n = 70_000
	ids := make([]ID, n)
	for i := 0; i < n; i++ {
		ids[i] = tb.Intern(fmt.Sprintf("sym-%d", i))
		if ids[i] != ID(i+1) {
			t.Fatalf("symbol %d got ID %d, want %d", i, ids[i], i+1)
		}
	}
	if tb.Len() != n+1 {
		t.Fatalf("Len = %d, want %d", tb.Len(), n+1)
	}
	// Spot-check resolution across the whole range, including past 65535.
	for _, i := range []int{0, 1, 65_534, 65_535, 65_536, n - 1} {
		if got := tb.Name(ids[i]); got != fmt.Sprintf("sym-%d", i) {
			t.Fatalf("Name(%d) = %q, want sym-%d", ids[i], got, i)
		}
	}
	names := tb.Names()
	if len(names) != n+1 || names[65_536] != "sym-65535" {
		t.Fatalf("Names snapshot wrong: len=%d names[65536]=%q", len(names), names[65_536])
	}
}

// TestConcurrentReadDuringIntern hammers the lock-free read paths (Name,
// Lookup, Names) while a writer interns new symbols — the shape the
// parallel matcher produces, where workers resolve symbols concurrently
// with the engine goroutine interning fresh atoms. Run under -race.
func TestConcurrentReadDuringIntern(t *testing.T) {
	tb := NewTable()
	const n = 5_000
	done := make(chan struct{})
	idCh := make(chan ID, n)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		defer close(done)
		for i := 0; i < n; i++ {
			idCh <- tb.Intern(fmt.Sprintf("w-%d", i))
		}
	}()

	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() { // readers: every ID learned from the writer must resolve
			defer wg.Done()
			seen := 0
			for {
				select {
				case id := <-idCh:
					seen++
					name := tb.Name(id)
					if name == "" {
						t.Errorf("Name(%d) empty for freshly interned symbol", id)
						return
					}
					if got, ok := tb.Lookup(name); !ok || got != id {
						t.Errorf("Lookup(%q) = %d, %v; want %d", name, got, ok, id)
						return
					}
				case <-done:
					// Drain what's left without blocking, then stop.
					for {
						select {
						case id := <-idCh:
							if tb.Name(id) == "" {
								t.Errorf("Name(%d) empty after writer finished", id)
								return
							}
							seen++
						default:
							_ = seen
							return
						}
					}
				}
			}
		}()
	}

	// A scanner reading consistent snapshots while interning proceeds:
	// every published prefix must be internally consistent.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			names := tb.Names()
			for i := 1; i < len(names); i++ {
				if names[i] == "" {
					t.Errorf("Names()[%d] empty in published snapshot of len %d", i, len(names))
					return
				}
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()

	wg.Wait()
	close(idCh)
	if tb.Len() != n+1 {
		t.Fatalf("Len = %d after concurrent intern, want %d", tb.Len(), n+1)
	}
}
