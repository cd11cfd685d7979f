package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ops5"
	"repro/internal/rete"
	"repro/internal/server/stats"
)

// ruleSource returns a distinct one-rule program, padded with a
// comment to n bytes when it is shorter.
func ruleSource(i, n int) string {
	src := fmt.Sprintf("(p rule-%d (c%d ^v <x>) --> (make d ^v <x>))\n;", i, i)
	if pad := n - len(src); pad > 0 {
		src += strings.Repeat("x", pad)
	}
	return src
}

// mustGet fetches src through the table and returns its plan's address,
// which names the entry that served it.
func mustGet(t *testing.T, tab *programTable, src string) string {
	t.Helper()
	_, plan, err := tab.get(src)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%p", plan)
}

func TestProgramTableEvictsLeastRecentlyUsed(t *testing.T) {
	tab := newProgramTable(stats.NewRegistry())
	first := mustGet(t, tab, ruleSource(0, 0))
	for i := 1; i < maxCachedPrograms; i++ {
		mustGet(t, tab, ruleSource(i, 0))
	}
	// Touch source 0, so source 1 is now the least recently used.
	if mustGet(t, tab, ruleSource(0, 0)) != first {
		t.Fatal("a cached source was compiled again")
	}
	mustGet(t, tab, ruleSource(maxCachedPrograms, 0))
	if n := len(tab.entries); n != maxCachedPrograms {
		t.Fatalf("%d entries past the bound of %d", n, maxCachedPrograms)
	}
	if _, ok := tab.entries[ruleSource(1, 0)]; ok {
		t.Error("the least recently used source was kept")
	}
	if _, ok := tab.entries[ruleSource(0, 0)]; !ok {
		t.Error("a recently used source was evicted")
	}
	if got := tab.cached.Value(); got != maxCachedPrograms {
		t.Errorf("psmd_programs_cached = %d, want %d", got, maxCachedPrograms)
	}
	compiles := tab.compiles.Value()
	mustGet(t, tab, ruleSource(1, 0))
	if got := tab.compiles.Value(); got != compiles+1 {
		t.Errorf("an evicted source took %d compiles, want 1", got-compiles)
	}
}

func TestProgramTableByteBound(t *testing.T) {
	tab := newProgramTable(stats.NewRegistry())
	size := maxCachedProgramBytes / 3
	for i := 0; i < 4; i++ {
		mustGet(t, tab, ruleSource(i, size))
	}
	if tab.bytes > maxCachedProgramBytes || len(tab.entries) != 3 {
		t.Fatalf("%d entries of %d bytes, want 3 within %d", len(tab.entries), tab.bytes, maxCachedProgramBytes)
	}
	if _, ok := tab.entries[ruleSource(0, size)]; ok {
		t.Error("the least recently used source was kept")
	}
	// A source over the byte bound alone is compiled and not kept.
	mustGet(t, tab, ruleSource(9, maxCachedProgramBytes+1))
	if len(tab.entries) != 3 || tab.compiles.Value() != 5 {
		t.Errorf("oversized source: %d entries, %d compiles; want 3 and 5", len(tab.entries), tab.compiles.Value())
	}
}

// TestBadProgramSources checks that a source that fails to parse or
// compile answers with the same 400 envelope as before the table. The
// table keeps nothing of a source that fails to parse; one that parses
// but fails Rete compilation is kept, so a naive session of it and
// every later create skip the parse.
func TestBadProgramSources(t *testing.T) {
	srv := New(Config{Shards: 1})
	defer srv.Close()
	h := srv.Handler()
	create := func(program, matcher string) (int, ErrorResponse) {
		t.Helper()
		body, _ := json.Marshal(CreateSpec{Program: program, Matcher: matcher})
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", APIVersion+"/sessions", strings.NewReader(string(body))))
		var env ErrorResponse
		if rec.Code >= 300 {
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
				t.Fatalf("error body %q: %v", rec.Body, err)
			}
		}
		return rec.Code, env
	}
	// predicateFirst uses <y> under > before any equality binds it: Rete
	// cannot compile it, and the naive matcher runs it.
	const broken, predicateFirst = `(p broken (a ^x 1) -->`, `(p x (a ^v > <y>) --> (halt))`
	for i, src := range []string{broken, broken, predicateFirst, predicateFirst} {
		_, want := core.NewSystem(src, core.Options{})
		code, env := create(src, "")
		if code != http.StatusBadRequest || env != (ErrorResponse{Code: "bad_request", Message: want.Error()}) {
			t.Errorf("create %d: %d %+v, want 400 with %q", i, code, env, want)
		}
	}
	if code, _ := create(predicateFirst, "naive"); code != http.StatusCreated {
		t.Errorf("naive session of a program Rete cannot compile: %d, want 201", code)
	}
	if n := srv.programs.compiles.Value(); n != 3 {
		t.Errorf("%d compiles, want 3: two of the unparsable source, one of the other", n)
	}
	_, kept := srv.programs.entries[predicateFirst]
	if n, cached := len(srv.programs.entries), srv.programs.cached.Value(); n != 1 || cached != 1 || !kept {
		t.Errorf("table holds %d entries (gauge %d, Rete-failing source kept: %v), want only the Rete-failing source",
			n, cached, kept)
	}
	// A right-hand side has no host-function escape: nothing could
	// register the function, so (call ...) is an unknown action.
	const call = `(p c (a ^v <x>) --> (call f <x>))`
	if code, env := create(call, ""); code != http.StatusBadRequest || !strings.Contains(env.Message, `unknown action "call"`) {
		t.Errorf("create with (call ...): %d %+v, want 400 unknown action", code, env)
	}
}

// TestProgramTableRetainedBytes measures what one entry keeps alive for
// each pack under benchmark/rules, per byte of its source: the ratio
// the table's byte bound is chosen by. It fails when plans grow past
// that ratio, which would leave the bound's comment wrong.
func TestProgramTableRetainedBytes(t *testing.T) {
	const maxPerSourceByte = 20 // the worst pack reads 17.5
	for _, pack := range []string{"chatter", "fraud", "manners", "dispatch"} {
		b, err := os.ReadFile("../../benchmark/rules/" + pack + ".ops")
		if err != nil {
			t.Fatal(err)
		}
		src := string(b)
		const copies = 16
		type entry struct {
			src  string
			prog *ops5.Program
			plan *rete.Plan
		}
		keep := make([]entry, copies)
		// A first compile interns the pack's symbols, which every later
		// one shares.
		if _, err := ops5.Parse(src); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := range keep {
			// The key is a copy of the source, as each request body is.
			src := strings.Clone(src)
			prog, err := ops5.Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := rete.CompilePlan(prog.Productions)
			if err != nil {
				t.Fatal(err)
			}
			keep[i] = entry{src, prog, plan}
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		per := float64(after.HeapAlloc-before.HeapAlloc) / copies
		ratio := per / float64(len(src))
		t.Logf("%-8s %6d source bytes, %8.0f retained, %.1f per source byte", pack, len(src), per, ratio)
		if ratio > maxPerSourceByte {
			t.Errorf("%s: an entry retains %.1f bytes per source byte, over the %d the table's bounds assume",
				pack, ratio, maxPerSourceByte)
		}
		runtime.KeepAlive(keep)
	}
}
