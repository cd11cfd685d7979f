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

// dispatch runs a result-less fn under the turn of sessionID's shard
// (see dispatchShard); the session need not exist.
func (s *Server) dispatch(ctx context.Context, sessionID string, fn func(sh *shard) error) error {
	_, err := dispatchShard(s, ctx, s.shardFor(sessionID), func(sh *shard) (struct{}, error) {
		return struct{}{}, fn(sh)
	})
	return err
}

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

	// Fill the single waiting slot behind the blocked request.
	queued := make(chan error, 1)
	go func() {
		queued <- srv.dispatch(context.Background(), "x", func(sh *shard) error { return nil })
	}()
	waitFor(t, func() bool { return srv.shards[0].waiting.Load() == 1 })

	// The next dispatch must be rejected immediately, not queued.
	err := srv.dispatch(context.Background(), "x", func(sh *shard) error { return nil })
	var busy *BusyError
	if !errors.As(err, &busy) {
		t.Fatalf("dispatch on a full shard = %v, want BusyError", err)
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

// queueDepthGauge returns shard 0's psmd_shard_queue_depth line as
// /metrics renders it.
func queueDepthGauge(srv *Server) string {
	var buf strings.Builder
	srv.Registry().WriteText(&buf)
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, `psmd_shard_queue_depth{shard="0"} `) {
			return line
		}
	}
	return ""
}

// TestDispatchExpiresWhileWaiting: a caller whose deadline passes while
// it waits for a held turn answers DeadlineExceeded at its deadline, not
// when the turn frees, and its fn never runs.
func TestDispatchExpiresWhileWaiting(t *testing.T) {
	srv := New(Config{Shards: 1, QueueDepth: 4})
	defer srv.Close()
	release := blockShard(t, srv)
	defer release()

	var ran atomic.Bool
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	err := srv.dispatch(ctx, "x", func(sh *shard) error {
		ran.Store(true)
		return nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("dispatch behind a held turn = %v, want DeadlineExceeded", err)
	}
	if waited := time.Since(t0); waited > 2*time.Second {
		t.Errorf("expired waiter answered after %v, want about its 50ms deadline", waited)
	}
	release()
	if err := srv.dispatch(context.Background(), "x", func(sh *shard) error { return nil }); err != nil {
		t.Fatalf("follow-up dispatch: %v", err)
	}
	if ran.Load() {
		t.Error("fn of an expired waiter ran")
	}
}

// TestDispatchLeavesNoWaiters: every exit of dispatchShard — success,
// busy, closed, expired while waiting, and panic — gives back its place
// in the waiting count and the psmd_shard_queue_depth gauge.
func TestDispatchLeavesNoWaiters(t *testing.T) {
	srv := New(Config{Shards: 1, QueueDepth: 1})
	sh := srv.shards[0]
	check := func(exit string) {
		t.Helper()
		if n, g := sh.waiting.Load(), queueDepthGauge(srv); n != 0 || !strings.HasSuffix(g, " 0") {
			t.Errorf("after %s: waiting = %d, gauge %q; want 0 and 0", exit, n, g)
		}
	}
	noop := func(sh *shard) error { return nil }

	if err := srv.dispatch(context.Background(), "x", noop); err != nil {
		t.Fatalf("success: %v", err)
	}
	check("success")

	release := blockShard(t, srv)
	ctx, cancel := context.WithCancel(context.Background())
	waiter := make(chan error, 1)
	go func() { waiter <- srv.dispatch(ctx, "x", noop) }()
	waitFor(t, func() bool { return sh.waiting.Load() == 1 })
	if g := queueDepthGauge(srv); !strings.HasSuffix(g, " 1") {
		t.Errorf("one caller waiting: gauge %q, want 1", g)
	}
	var busy *BusyError
	if err := srv.dispatch(context.Background(), "x", noop); !errors.As(err, &busy) {
		t.Fatalf("dispatch past QueueDepth = %v, want BusyError", err)
	}
	cancel()
	if err := <-waiter; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter = %v, want context.Canceled", err)
	}
	check("busy and expired")
	release()

	if err := srv.dispatch(context.Background(), "x", func(sh *shard) error { panic("bug") }); err == nil {
		t.Fatal("panic not converted to error")
	}
	check("panic")

	srv.Close()
	if err := srv.dispatch(context.Background(), "x", noop); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("dispatch after close = %v, want ErrServerClosed", err)
	}
	check("closed")
}

// TestDispatchMutualExclusion: turn holders of one shard never overlap.
// Run under -race, an unsynchronized counter that 64 goroutines bump
// through one shard must come out exact with no race reported.
func TestDispatchMutualExclusion(t *testing.T) {
	const callers, rounds = 64, 50
	srv := New(Config{Shards: 1, QueueDepth: callers})
	defer srv.Close()
	count := 0
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if err := srv.dispatch(context.Background(), "x", func(sh *shard) error {
					count++
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if count != callers*rounds {
		t.Fatalf("count = %d, want %d", count, callers*rounds)
	}
}

// TestDispatchCloseDrainsHolderAndWaiter: Close returns only after the
// turn's holder and the caller waiting behind it have both run, and
// rejects every later dispatch with ErrServerClosed.
func TestDispatchCloseDrainsHolderAndWaiter(t *testing.T) {
	srv := New(Config{Shards: 1, QueueDepth: 4})
	release := blockShard(t, srv)
	var waiterRan atomic.Bool
	waiter := make(chan error, 1)
	go func() {
		waiter <- srv.dispatch(context.Background(), "x", func(sh *shard) error {
			waiterRan.Store(true)
			return nil
		})
	}()
	waitFor(t, func() bool { return srv.shards[0].waiting.Load() == 1 })

	closed := make(chan struct{})
	go func() { srv.Close(); close(closed) }()
	select {
	case <-closed:
		t.Fatal("Close returned while the turn was held")
	case <-time.After(50 * time.Millisecond):
	}
	release()
	<-closed
	if !waiterRan.Load() {
		t.Fatal("Close returned before the waiting caller ran")
	}
	if err := <-waiter; err != nil {
		t.Fatalf("waiter = %v, want nil", err)
	}
	if err := srv.dispatch(context.Background(), "x", func(sh *shard) error { return nil }); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("dispatch after close = %v, want ErrServerClosed", err)
	}
}

// TestDispatchAllocsNothing: taking a free turn, running fn and handing
// its result back allocate nothing.
func TestDispatchAllocsNothing(t *testing.T) {
	type result struct{ a, b int }
	srv := New(Config{Shards: 1})
	defer srv.Close()
	sh := srv.shards[0]
	ctx := context.Background()
	fn := func(sh *shard) (result, error) { return result{sh.id, 1}, nil }
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := dispatchShard(srv, ctx, sh, fn); err != nil {
			panic(err)
		}
	}); allocs != 0 {
		t.Fatalf("dispatchShard: %.1f allocs per call, want 0", allocs)
	}
}

// TestNewStartsNoGoroutine: a server owns no goroutine — shards are
// turns that callers hold, not loops — so New with eight shards leaves
// the goroutine count where it was.
func TestNewStartsNoGoroutine(t *testing.T) {
	settled := func() int {
		last := runtime.NumGoroutine()
		for i := 0; i < 100; i++ {
			time.Sleep(10 * time.Millisecond)
			n := runtime.NumGoroutine()
			if n == last {
				return n
			}
			last = n
		}
		return last
	}
	before := settled()
	srv := New(Config{Shards: 8})
	defer srv.Close()
	if after := settled(); after > before {
		t.Fatalf("New(Config{Shards: 8}) raised goroutines from %d to %d, want no change", before, after)
	}
}
