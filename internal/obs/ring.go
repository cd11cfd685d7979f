package obs

import "sync"

// DefaultRingDepth is the span capacity used when a Ring is sized <= 0.
const DefaultRingDepth = 256

// Ring is a bounded buffer of the most recent CycleSpans. Writers
// overwrite the oldest span once the buffer is full, so a long-lived
// session's trace stays a fixed-size window over its latest activity.
// All methods are safe for concurrent use: spans are added by the
// holder of the session's shard turn while snapshots may be taken from
// archive or test code.
type Ring struct {
	mu    sync.Mutex
	spans []CycleSpan
	next  int   // index the next span is written at
	total int64 // spans ever added (total - len = overwritten)
}

// NewRing returns a ring holding up to depth spans (<= 0 selects
// DefaultRingDepth).
func NewRing(depth int) *Ring {
	if depth <= 0 {
		depth = DefaultRingDepth
	}
	return &Ring{spans: make([]CycleSpan, 0, depth)}
}

// Add records one span, overwriting the oldest when full.
func (r *Ring) Add(s CycleSpan) {
	r.mu.Lock()
	if len(r.spans) < cap(r.spans) {
		r.spans = append(r.spans, s)
	} else {
		r.spans[r.next] = s
	}
	r.next = (r.next + 1) % cap(r.spans)
	r.total++
	r.mu.Unlock()
}

// Snapshot returns the buffered spans, oldest first.
func (r *Ring) Snapshot() []CycleSpan {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]CycleSpan, 0, len(r.spans))
	if len(r.spans) == cap(r.spans) {
		out = append(out, r.spans[r.next:]...)
	}
	out = append(out, r.spans[:r.next]...)
	return out
}

// Last returns the most recent span, if any.
func (r *Ring) Last() (CycleSpan, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) == 0 {
		return CycleSpan{}, false
	}
	i := r.next - 1
	if i < 0 {
		i = len(r.spans) - 1
	}
	return r.spans[i], true
}

// Len returns the number of buffered spans.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// Total returns the number of spans ever added; Total() - Len() spans
// have been overwritten.
func (r *Ring) Total() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}
