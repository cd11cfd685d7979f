// Package obs is the request-scoped observability layer threaded
// through the serving stack (cmd/psmd -> internal/server ->
// internal/engine): trace IDs propagated via context.Context, per-cycle
// span records collected in bounded ring buffers, and structured-log
// construction for the daemon.
//
// The paper's §6 results hinge on measuring where cycles go — node
// activations, concurrency, the 1.93x scheduling-and-synchronization
// "lost factor". internal/trace captures that offline from instrumented
// runs; this package is the live counterpart: every /v1 request carries
// a trace ID, every recognize-act cycle it drives becomes a CycleSpan
// (match / conflict-resolve / act durations, WME deltas, firings,
// conflict-set size), and the spans are queryable per session while the
// service runs.
//
// It also owns the matcher report types (report.go) — match stats, index
// report, node profile, the §6 loss table — declared once with their
// /v1 JSON tags: the matchers fill them (match stats through
// engine.StatsProvider, the rest straight from the parallel matcher),
// the server returns them.
//
// The package is a leaf: it imports only the standard library, so the
// matchers, the engine and the server can all depend on it without
// cycles.
package obs

import (
	"context"
	"encoding/hex"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"strings"
)

// ctxKey is the private context key type for trace IDs.
type ctxKey struct{}

// NewTraceID returns a fresh 16-hex-digit trace ID. IDs only need to be
// unique enough to correlate log lines and spans within a deployment,
// so a fast non-cryptographic source is deliberate.
func NewTraceID() string {
	var b [8]byte
	v := rand.Uint64()
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	var id [16]byte
	hex.Encode(id[:], b[:])
	return string(id[:])
}

// WithTraceID returns a context carrying the trace ID.
func WithTraceID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, ctxKey{}, id)
}

// TraceID returns the context's trace ID, or "" when none was attached.
func TraceID(ctx context.Context) string {
	id, _ := ctx.Value(ctxKey{}).(string)
	return id
}

// NewLogger builds a slog.Logger writing to w in the given format
// ("text" or "json") at the given minimum level.
func NewLogger(w io.Writer, format string, level slog.Level) (*slog.Logger, error) {
	opts := &slog.HandlerOptions{Level: level}
	switch strings.ToLower(format) {
	case "", "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("obs: unknown log format %q (text|json)", format)
	}
}

// ParseLevel converts a level name (debug, info, warn, error) to a
// slog.Level.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "", "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	default:
		return 0, fmt.Errorf("obs: unknown log level %q (debug|info|warn|error)", s)
	}
}
