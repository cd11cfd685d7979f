// Observability surface of the server: per-session cycle traces (with
// an archive so traces survive session eviction) and live hot-node
// profiles ranked by the paper's cost model.

package server

import (
	"context"
	"errors"
	"sort"
	"sync"

	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/obs"
)

// TraceResult is one session's retained cycle-span window.
type TraceResult struct {
	// SessionID names the traced session.
	SessionID string `json:"session_id"`
	// Evicted reports that the session is gone and the spans came from
	// the post-deletion archive.
	Evicted bool `json:"evicted"`
	// Total counts spans ever recorded; Total - len(Spans) spans have
	// been overwritten by the ring.
	Total int64 `json:"total_spans"`
	// Spans is the retained window, oldest first.
	Spans []obs.CycleSpan `json:"spans"`
}

// archiveDepth bounds the trace archive: the most recently deleted
// sessions keep their final trace window available for post-mortems.
const archiveDepth = 64

// traceArchive retains the final trace of recently deleted sessions,
// FIFO-evicted at archiveDepth. It has its own lock because deletes
// happen under each shard's own turn while reads come from any request.
type traceArchive struct {
	mu      sync.Mutex
	entries map[string]TraceResult
	order   []string
}

// put archives a deleted session's trace, evicting the oldest archive
// entry past archiveDepth.
func (a *traceArchive) put(tr TraceResult) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.entries == nil {
		a.entries = make(map[string]TraceResult)
	}
	if _, seen := a.entries[tr.SessionID]; !seen {
		a.order = append(a.order, tr.SessionID)
		if len(a.order) > archiveDepth {
			delete(a.entries, a.order[0])
			a.order = a.order[1:]
		}
	}
	a.entries[tr.SessionID] = tr
}

// get returns an archived trace, if retained.
func (a *traceArchive) get(id string) (TraceResult, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	tr, ok := a.entries[id]
	return tr, ok
}

// Trace returns a session's retained cycle spans. Deleted sessions fall
// back to the archive (Evicted true), so a trace can be pulled after
// the session that produced it is gone.
func (s *Server) Trace(ctx context.Context, id string) (TraceResult, error) {
	tr, err := dispatchSession(s, ctx, id, func(sess *session) (TraceResult, error) {
		return TraceResult{
			SessionID: id,
			Total:     sess.trace.Total(),
			Spans:     sess.trace.Snapshot(),
		}, nil
	})
	if errors.Is(err, ErrNoSession) {
		if arch, ok := s.archive.get(id); ok {
			return arch, nil
		}
	}
	return tr, err
}

// ProfileResult is one session's live match-work profile.
type ProfileResult struct {
	// SessionID and Matcher identify what was profiled; Cycles and
	// TotalChanges scale the numbers.
	SessionID    string `json:"session_id"`
	Matcher      string `json:"matcher"`
	Cycles       int    `json:"cycles"`
	TotalChanges int    `json:"total_changes"`
	// NodesSupported reports whether the matcher exposes per-node
	// counters (the Rete variants do; naive does not).
	NodesSupported bool `json:"nodes_supported"`
	// TotalCost sums the node costs under the paper's cost model.
	TotalCost float64 `json:"total_cost"`
	// Nodes holds the activated nodes, costliest first; Truncated counts
	// the nodes a ?top= limit cut off the end.
	Nodes     []obs.NodeProfileEntry `json:"nodes"`
	Truncated int                    `json:"truncated,omitempty"`
	// MatchStats and Index summarise whole-matcher work when the
	// matcher reports them (nil otherwise).
	MatchStats *obs.MatchStats  `json:"match_stats,omitempty"`
	Index      *obs.IndexReport `json:"index,omitempty"`
	// Loss carries the matcher's loss-factor accounting when the
	// matcher reports one (nil otherwise).
	Loss *obs.LossReport `json:"loss,omitempty"`
}

// Profile snapshots a session's live hot-node profile: per-node
// activation counters priced by the paper's cost model, ranked by
// cumulative cost.
func (s *Server) Profile(ctx context.Context, id string) (ProfileResult, error) {
	return dispatchSession(s, ctx, id, func(sess *session) (ProfileResult, error) {
		eng := sess.sys.Engine
		res := ProfileResult{
			SessionID:    id,
			Matcher:      sess.sys.MatcherKind().String(),
			Cycles:       eng.Cycles,
			TotalChanges: eng.TotalChanges,
			Nodes:        []obs.NodeProfileEntry{}, // "nodes": [] on the wire, never null
		}
		if p, ok := eng.Matcher.(engine.StatsProvider); ok {
			ms := p.MatchStats()
			res.MatchStats = &ms
		}
		pm := sess.sys.ParallelMatcher()
		if pm == nil {
			return res, nil
		}
		res.NodesSupported = true
		res.Nodes = append(res.Nodes, pm.NodeProfile()...)
		nodes, model := res.Nodes, cost.Default()
		for i := range nodes {
			nodes[i].Cost = model.NodeCost(nodes[i])
		}
		sort.Slice(nodes, func(i, j int) bool {
			if nodes[i].Cost != nodes[j].Cost {
				return nodes[i].Cost > nodes[j].Cost
			}
			return nodes[i].NodeID < nodes[j].NodeID
		})
		for i := range nodes {
			res.TotalCost += nodes[i].Cost
		}
		if res.TotalCost > 0 {
			for i := range nodes {
				nodes[i].CostShare = nodes[i].Cost / res.TotalCost
			}
		}
		ix, lr := pm.IndexInfo(), pm.Loss()
		res.Index, res.Loss = &ix, &lr
		return res, nil
	})
}

// LossResult is one session's loss-factor accounting (§6): where the
// parallel matcher's wall time went and how true speedup relates to
// nominal concurrency.
type LossResult struct {
	// SessionID and Matcher identify what was measured.
	SessionID string `json:"session_id"`
	Matcher   string `json:"matcher"`
	// Supported reports whether the matcher keeps phase accounting
	// (both Rete kinds do; naive does not).
	Supported bool `json:"supported"`
	// Report is the accounting; nil when unsupported.
	Report *obs.LossReport `json:"loss,omitempty"`
}

// Loss snapshots a session's loss-factor accounting: the parallel
// matcher's per-worker phase times, task-size histogram, and the
// paper-§6 nominal-concurrency / true-speedup / loss-factor numbers.
func (s *Server) Loss(ctx context.Context, id string) (LossResult, error) {
	return dispatchSession(s, ctx, id, func(sess *session) (LossResult, error) {
		res := LossResult{
			SessionID: id,
			Matcher:   sess.sys.MatcherKind().String(),
		}
		if pm := sess.sys.ParallelMatcher(); pm != nil {
			lr := pm.Loss()
			res.Supported = true
			res.Report = &lr
		}
		return res, nil
	})
}
