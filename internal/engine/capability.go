package engine

import "repro/internal/obs"

// This file defines the optional matcher capability interfaces. The
// core Matcher contract stays the single Apply method; matchers (or
// their adapters in internal/core) may additionally implement the
// provider interfaces below, whose methods are the matchers' own —
// rete.Network and prete.Matcher satisfy Profile, Index and Loss as
// they stand — and whose results are the report types of
// internal/obs. Callers discover them through the single Capabilities
// accessor — the engine, the server and tools such as cmd/ops5run
// -stats all read capabilities from the returned Caps bundle instead of
// type-asserting matcher types themselves.

// StatsProvider is the optional capability of reporting match work.
type StatsProvider interface {
	MatchStats() obs.MatchStats
}

// LossProvider is the optional capability of reporting loss-factor
// accounting; only phase-instrumented parallel matchers implement it.
type LossProvider interface {
	Loss() obs.LossReport
}

// ProfileProvider is the optional capability of reporting per-node
// activation work. Matchers without a node network (naive, full-state)
// simply do not implement it.
type ProfileProvider interface {
	NodeProfile() []obs.NodeProfileEntry
}

// IndexProvider is the optional capability of reporting hash-index
// state; matchers without indexed memories simply do not implement it.
type IndexProvider interface {
	IndexInfo() obs.IndexReport
}

// Caps bundles a matcher's optional capabilities. A nil field means the
// matcher does not implement that capability; callers branch on the
// field instead of type-asserting the matcher themselves. New optional
// capabilities are added here rather than at call sites, so capability
// discovery stays in one documented place.
type Caps struct {
	// Stats reports matcher-neutral work counters (nil: not supported).
	Stats StatsProvider
	// Profile reports per-node activation work (nil: no node network).
	Profile ProfileProvider
	// Index reports equality-join hash-index state (nil: no indexes).
	Index IndexProvider
	// Loss reports loss-factor accounting (nil: no phase-instrumented
	// scheduler).
	Loss LossProvider
}

// Capabilities discovers the optional capabilities of a matcher. It is
// the single sanctioned way to get at matcher extras — servers, tools
// and experiments all go through it, never through type assertions on
// concrete matcher types.
func Capabilities(m Matcher) Caps {
	var c Caps
	c.Stats, _ = m.(StatsProvider)
	c.Profile, _ = m.(ProfileProvider)
	c.Index, _ = m.(IndexProvider)
	c.Loss, _ = m.(LossProvider)
	return c
}

// Capabilities returns the capability bundle of the engine's matcher.
func (e *Engine) Capabilities() Caps { return Capabilities(e.Matcher) }
