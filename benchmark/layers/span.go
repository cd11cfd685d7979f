package layers

import "time"

// Span is one timed interval of the traced run: a request, API call or
// engine call at some depth, or — inside the instrumented engine run —
// a matcher batch, a log append, a parse or a compile. Spans of one
// operation share Op; Parent is the ID of the span that caused this one
// (0 for a depth's top-level span).
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Op     int    `json:"op"` // -1: set-up
	Depth  string `json:"depth"`
	Name   string `json:"name"`
	// Layer is the package the span's self time belongs to.
	Layer   string `json:"layer"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// spanLog collects spans in memory; they are written out when the
// traced run ends.
type spanLog struct {
	base  time.Time
	spans []Span
}

func newSpanLog() *spanLog { return &spanLog{base: time.Now()} }

// begin opens a span and returns its ID; end closes it.
func (l *spanLog) begin(parent, op int, depth, name, layer string) int {
	id := len(l.spans) + 1
	l.spans = append(l.spans, Span{ID: id, Parent: parent, Op: op, Depth: depth, Name: name, Layer: layer,
		StartNs: int64(time.Since(l.base))})
	return id
}

func (l *spanLog) end(id int) { l.spans[id-1].EndNs = int64(time.Since(l.base)) }

// SelfTimes attributes time to layers: a span's self time is its
// duration minus the part its child spans cover (children of one span
// never overlap here — everything runs on one goroutine), and a layer's
// time is the sum of the self times of its spans. Set-up spans (Op < 0)
// are left out unless setup is true.
func SelfTimes(spans []Span, setup bool) map[string]time.Duration {
	children := make(map[int]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] += s.EndNs - s.StartNs
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		if s.Op < 0 && !setup {
			continue
		}
		out[s.Layer] += time.Duration(s.EndNs - s.StartNs - children[s.ID])
	}
	return out
}
