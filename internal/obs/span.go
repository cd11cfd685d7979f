package obs

import (
	"encoding/json"
	"log/slog"
	"math"
	"time"
)

// SpanKind distinguishes the shapes of engine work a span records.
type SpanKind string

// The span kinds.
const (
	// SpanCycle is one recognize-act cycle: conflict-resolve, act, then
	// match over the firings' change batch.
	SpanCycle SpanKind = "cycle"
	// SpanApply is one externally submitted change batch pushed through
	// the matcher (no firings of its own).
	SpanApply SpanKind = "apply"
	// SpanStream is one NDJSON event batch through streaming ingest:
	// clock advance, expiries, asserts, then cycles to quiescence.
	// Match covers the whole batch wall time; Fired and Changes count
	// the work it triggered.
	SpanStream SpanKind = "stream"
)

// CycleSpan is one engine synchronization step, attributed to the
// request that drove it. Durations split the step into the three phases
// of §2.1: Match (the change batch through the matcher), Select
// (conflict resolution), and Act (RHS evaluation).
type CycleSpan struct {
	// TraceID is the driving request's trace ID ("" when the span was
	// produced outside a traced request).
	TraceID string
	// Kind is SpanCycle or SpanApply.
	Kind SpanKind
	// Cycle is the engine's cumulative cycle count when the span ended
	// (unchanged across SpanApply spans).
	Cycle int
	// Start is when the step began.
	Start time.Time
	// Match, Select and Act are the phase durations.
	Match  time.Duration
	Select time.Duration
	Act    time.Duration
	// Fired is the number of production firings in the step.
	Fired int
	// Changes is the number of WM changes the step pushed through the
	// matcher.
	Changes int
	// WMSize and ConflictSize snapshot the session after the step.
	WMSize       int
	ConflictSize int
}

// Total returns the step's summed phase durations.
func (s CycleSpan) Total() time.Duration { return s.Match + s.Select + s.Act }

// spanJSON is CycleSpan as /v1 spells it. The span keeps
// time.Durations — the engine measures them, the slow-cycle log compares
// them — while the API reports float seconds and the derived total, a
// change of unit that struct tags cannot express.
type spanJSON struct {
	TraceID       string    `json:"trace_id,omitempty"`
	Kind          SpanKind  `json:"kind"`
	Cycle         int       `json:"cycle"`
	Start         time.Time `json:"start"`
	TotalSeconds  float64   `json:"total_seconds"`
	MatchSeconds  float64   `json:"match_seconds"`
	SelectSeconds float64   `json:"select_seconds"`
	ActSeconds    float64   `json:"act_seconds"`
	Fired         int       `json:"fired"`
	Changes       int       `json:"changes"`
	WMSize        int       `json:"wm_size"`
	ConflictSize  int       `json:"conflict_size"`
}

// MarshalJSON renders the span with its durations in seconds.
func (s CycleSpan) MarshalJSON() ([]byte, error) {
	return json.Marshal(spanJSON{
		TraceID: s.TraceID, Kind: s.Kind, Cycle: s.Cycle, Start: s.Start,
		TotalSeconds: s.Total().Seconds(), MatchSeconds: s.Match.Seconds(),
		SelectSeconds: s.Select.Seconds(), ActSeconds: s.Act.Seconds(),
		Fired: s.Fired, Changes: s.Changes, WMSize: s.WMSize, ConflictSize: s.ConflictSize,
	})
}

// UnmarshalJSON reads a span back (to the nanosecond; total_seconds is
// derived and ignored).
func (s *CycleSpan) UnmarshalJSON(b []byte) error {
	var j spanJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	dur := func(sec float64) time.Duration { return time.Duration(math.Round(sec * float64(time.Second))) }
	*s = CycleSpan{
		TraceID: j.TraceID, Kind: j.Kind, Cycle: j.Cycle, Start: j.Start,
		Match: dur(j.MatchSeconds), Select: dur(j.SelectSeconds), Act: dur(j.ActSeconds),
		Fired: j.Fired, Changes: j.Changes, WMSize: j.WMSize, ConflictSize: j.ConflictSize,
	}
	return nil
}

// LogAttrs renders the span as structured-log attributes, used by the
// server's slow-cycle log to dump the offending cycle.
func (s CycleSpan) LogAttrs() []slog.Attr {
	return []slog.Attr{
		slog.String("trace_id", s.TraceID),
		slog.String("kind", string(s.Kind)),
		slog.Int("cycle", s.Cycle),
		slog.Duration("total", s.Total()),
		slog.Duration("match", s.Match),
		slog.Duration("select", s.Select),
		slog.Duration("act", s.Act),
		slog.Int("fired", s.Fired),
		slog.Int("changes", s.Changes),
		slog.Int("wm_size", s.WMSize),
		slog.Int("conflict_size", s.ConflictSize),
	}
}
