package engine

import "repro/internal/obs"

// StatsProvider is a matcher's one optional report: its match work in
// the matcher-neutral form, each matcher counting in its own unit.
// Naive, TREAT, full-state and the parallel Rete implement it; callers
// that want the parallel matcher's other books (node profile, index
// and loss reports) read them from that matcher directly.
type StatsProvider interface {
	MatchStats() obs.MatchStats
}
