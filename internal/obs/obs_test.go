package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"sync"
	"testing"
	"time"
)

func TestTraceIDContextRoundTrip(t *testing.T) {
	if got := TraceID(context.Background()); got != "" {
		t.Errorf("TraceID(empty ctx) = %q, want \"\"", got)
	}
	ctx := WithTraceID(context.Background(), "abc123")
	if got := TraceID(ctx); got != "abc123" {
		t.Errorf("TraceID = %q, want abc123", got)
	}
}

func TestNewTraceIDShapeAndSpread(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		id := NewTraceID()
		if len(id) != 16 {
			t.Fatalf("trace ID %q: len %d, want 16", id, len(id))
		}
		seen[id] = true
	}
	if len(seen) < 100 {
		t.Errorf("only %d distinct IDs out of 100", len(seen))
	}
	if n := testing.AllocsPerRun(100, func() { NewTraceID() }); n != 1 {
		t.Errorf("NewTraceID: %v allocations, want 1 (the string)", n)
	}
}

func TestRingWrapsOldestFirst(t *testing.T) {
	r := NewRing(4)
	for i := 1; i <= 10; i++ {
		r.Add(CycleSpan{Cycle: i})
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	if r.Total() != 10 {
		t.Fatalf("Total = %d, want 10", r.Total())
	}
	got := r.Snapshot()
	for i, want := range []int{7, 8, 9, 10} {
		if got[i].Cycle != want {
			t.Errorf("span %d cycle = %d, want %d", i, got[i].Cycle, want)
		}
	}
	if last, ok := r.Last(); !ok || last.Cycle != 10 {
		t.Errorf("Last = %+v/%v, want cycle 10", last, ok)
	}
}

func TestRingPartialFill(t *testing.T) {
	r := NewRing(8)
	r.Add(CycleSpan{Cycle: 1})
	r.Add(CycleSpan{Cycle: 2})
	got := r.Snapshot()
	if len(got) != 2 || got[0].Cycle != 1 || got[1].Cycle != 2 {
		t.Errorf("Snapshot = %+v, want cycles [1 2]", got)
	}
}

func TestRingConcurrentAddSnapshot(t *testing.T) {
	r := NewRing(16)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Add(CycleSpan{Cycle: i})
				if i%50 == 0 {
					r.Snapshot()
					r.Last()
				}
			}
		}()
	}
	wg.Wait()
	if r.Total() != 2000 {
		t.Errorf("Total = %d, want 2000", r.Total())
	}
}

func TestSpanTotalAndAttrs(t *testing.T) {
	s := CycleSpan{
		TraceID: "t1", Kind: SpanCycle, Cycle: 3,
		Match: 2 * time.Millisecond, Select: time.Millisecond, Act: 3 * time.Millisecond,
	}
	if s.Total() != 6*time.Millisecond {
		t.Errorf("Total = %v, want 6ms", s.Total())
	}
	attrs := s.LogAttrs()
	if len(attrs) == 0 || attrs[0].Key != "trace_id" {
		t.Errorf("LogAttrs = %v, want trace_id first", attrs)
	}
}

func TestNewLoggerFormats(t *testing.T) {
	var buf bytes.Buffer
	lg, err := NewLogger(&buf, "json", slog.LevelInfo)
	if err != nil {
		t.Fatal(err)
	}
	lg.Debug("hidden")
	lg.Info("hello", "k", "v")
	line := buf.String()
	var rec map[string]any
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("log line not JSON: %v\n%s", err, line)
	}
	if rec["msg"] != "hello" || rec["k"] != "v" {
		t.Errorf("log record = %v", rec)
	}
	if _, err := NewLogger(&buf, "yaml", slog.LevelInfo); err == nil {
		t.Error("NewLogger(yaml) did not error")
	}
	if _, err := ParseLevel("warn"); err != nil {
		t.Errorf("ParseLevel(warn): %v", err)
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel(loud) did not error")
	}
}
