package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// blockShard occupies the single shard of srv with a request that
// blocks until the returned release func is called.
func blockShard(t *testing.T, srv *Server) (release func()) {
	t.Helper()
	block := make(chan struct{})
	started := make(chan struct{})
	go srv.dispatch(context.Background(), "x", func(sh *shard) error {
		close(started)
		<-block
		return nil
	})
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("shard never picked up the blocking request")
	}
	var once sync.Once
	return func() { once.Do(func() { close(block) }) }
}

func TestDispatchBackpressure(t *testing.T) {
	srv := New(Config{Shards: 1, QueueDepth: 1, RetryAfter: 2 * time.Second})
	defer srv.Close()
	release := blockShard(t, srv)
	defer release()

	// Fill the single mailbox slot behind the blocked request.
	queued := make(chan error, 1)
	go func() {
		queued <- srv.dispatch(context.Background(), "x", func(sh *shard) error { return nil })
	}()
	waitFor(t, func() bool { return len(srv.shards[0].mailbox) == 1 })

	// The next dispatch must be rejected immediately, not queued.
	err := srv.dispatch(context.Background(), "x", func(sh *shard) error { return nil })
	var busy *BusyError
	if !errors.As(err, &busy) {
		t.Fatalf("dispatch on full mailbox = %v, want BusyError", err)
	}
	if busy.Shard != 0 || busy.RetryAfter != 2*time.Second {
		t.Errorf("BusyError = %+v", busy)
	}
	if srv.rejected.Value() != 1 {
		t.Errorf("rejected counter = %d, want 1", srv.rejected.Value())
	}

	rec := httptest.NewRecorder()
	writeError(rec, err)
	if rec.Code != http.StatusTooManyRequests || rec.Header().Get("Retry-After") != "2" {
		t.Errorf("busy reply: %d, Retry-After %q; want 429, \"2\"", rec.Code, rec.Header().Get("Retry-After"))
	}

	release()
	if err := <-queued; err != nil {
		t.Errorf("queued request err = %v", err)
	}
}

// TestRetryAfterRoundsUp: Retry-After is whole seconds, so a sub-second
// backoff rounds up to 1 rather than telling clients to retry at once.
func TestRetryAfterRoundsUp(t *testing.T) {
	for _, tc := range []struct {
		backoff time.Duration
		want    string
	}{
		{500 * time.Millisecond, "1"},
		{time.Nanosecond, "1"},
		{time.Second, "1"},
		{1500 * time.Millisecond, "2"},
		{2 * time.Second, "2"},
	} {
		rec := httptest.NewRecorder()
		writeError(rec, &BusyError{RetryAfter: tc.backoff})
		if got := rec.Header().Get("Retry-After"); got != tc.want {
			t.Errorf("RetryAfter %v: header %q, want %q", tc.backoff, got, tc.want)
		}
	}
}

func TestDispatchSkipsExpiredQueuedRequests(t *testing.T) {
	srv := New(Config{Shards: 1, QueueDepth: 4})
	defer srv.Close()
	release := blockShard(t, srv)

	// Queue a request, then cancel its context while it waits.
	var ran atomic.Bool
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := srv.dispatch(ctx, "x", func(sh *shard) error {
		ran.Store(true)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("dispatch with cancelled ctx = %v, want context.Canceled", err)
	}

	// Unblock the shard and let it drain; the expired request must be
	// skipped, not executed.
	release()
	if err := srv.dispatch(context.Background(), "x", func(sh *shard) error { return nil }); err != nil {
		t.Fatalf("follow-up dispatch: %v", err)
	}
	if ran.Load() {
		t.Error("expired queued request was executed")
	}
}

func TestDispatchRecoversPanics(t *testing.T) {
	srv := New(Config{Shards: 1, QueueDepth: 4})
	defer srv.Close()
	err := srv.dispatch(context.Background(), "x", func(sh *shard) error {
		panic("session bug")
	})
	if err == nil || !strings.Contains(err.Error(), "session bug") {
		t.Fatalf("panic not converted to error: %v", err)
	}
	if srv.panics.Value() != 1 {
		t.Errorf("panics counter = %d, want 1", srv.panics.Value())
	}
	// The shard must still be alive.
	if err := srv.dispatch(context.Background(), "x", func(sh *shard) error { return nil }); err != nil {
		t.Fatalf("shard dead after panic: %v", err)
	}
}

func TestDispatchAfterClose(t *testing.T) {
	srv := New(Config{Shards: 2, QueueDepth: 4})
	srv.Close()
	srv.Close() // idempotent
	err := srv.dispatch(context.Background(), "x", func(sh *shard) error { return nil })
	if !errors.Is(err, ErrServerClosed) {
		t.Fatalf("dispatch after close = %v, want ErrServerClosed", err)
	}
}

func TestShardAssignmentIsStable(t *testing.T) {
	srv := New(Config{Shards: 8, QueueDepth: 4})
	defer srv.Close()
	for _, id := range []string{"a", "session-42", ""} {
		if srv.shardFor(id) != srv.shardFor(id) {
			t.Errorf("shardFor(%q) not stable", id)
		}
	}
}

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

// headerCounter counts WriteHeader calls.
type headerCounter struct {
	http.ResponseWriter
	calls int
}

func (h *headerCounter) WriteHeader(status int) {
	h.calls++
	h.ResponseWriter.WriteHeader(status)
}

// TestWriteJSONEncodesBeforeStatus: a body that cannot be encoded is one
// clean 500 envelope, not a 200 followed by an error body.
func TestWriteJSONEncodesBeforeStatus(t *testing.T) {
	rec := httptest.NewRecorder()
	w := &headerCounter{ResponseWriter: rec}
	err := WriteJSON(w, http.StatusOK, map[string]float64{"v": math.Inf(1)})
	if err == nil || w.calls != 0 || rec.Body.Len() != 0 {
		t.Fatalf("WriteJSON(+Inf) = %v after %d WriteHeader calls and %q", err, w.calls, rec.Body)
	}
	writeError(w, err)
	var env ErrorResponse
	if jerr := json.Unmarshal(rec.Body.Bytes(), &env); jerr != nil || env.Code != "internal" ||
		w.calls != 1 || rec.Code != http.StatusInternalServerError {
		t.Errorf("reply = %d %q after %d WriteHeader calls (%v), want one 500 internal envelope",
			rec.Code, rec.Body, w.calls, jerr)
	}
}

// TestShardForEveryID: every session ID maps onto a shard, on 32-bit
// platforms too (run it with GOARCH=386), where reducing the hash as an
// int once indexed below zero for about a third of all IDs.
func TestShardForEveryID(t *testing.T) {
	srv := New(Config{Shards: 4})
	defer srv.Close()
	used := map[int]int{}
	for i := 0; i < 1000; i++ {
		id := fmt.Sprintf("s-%06d", i)
		h := fnv.New32a()
		h.Write([]byte(id))
		sh := srv.shardFor(id)
		if want := int(h.Sum32() % 4); sh.id != want {
			t.Fatalf("shardFor(%q) = shard %d, want %d", id, sh.id, want)
		}
		used[sh.id]++
	}
	if len(used) != 4 {
		t.Errorf("1,000 IDs used shards %v, want all 4", used)
	}
}
