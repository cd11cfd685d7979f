// Package conflict implements the OPS5 conflict set and the LEX and MEA
// conflict-resolution strategies described in Brownston et al. and used
// by the paper's recognize-act cycle (§2.1).
package conflict

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/bucket"
	"repro/internal/ops5"
)

// Strategy selects which instantiation fires next.
type Strategy uint8

// The OPS5 conflict-resolution strategies.
const (
	// LEX orders by refraction, recency of all time tags, then
	// specificity.
	LEX Strategy = iota
	// MEA is LEX with a dominant first comparison on the time tag of the
	// WME matching the first condition element (the "means-ends" goal
	// element).
	MEA
)

// String names the strategy.
func (s Strategy) String() string {
	if s == MEA {
		return "MEA"
	}
	return "LEX"
}

// ParseStrategy converts a name (case-insensitive "lex" or "mea") to a
// strategy.
func ParseStrategy(name string) (Strategy, error) {
	switch strings.ToLower(name) {
	case "lex":
		return LEX, nil
	case "mea":
		return MEA, nil
	default:
		return LEX, fmt.Errorf("conflict: unknown strategy %q (lex|mea)", name)
	}
}

// Set is the conflict set: the instantiations of all currently satisfied
// productions. It supports the deltas emitted by matchers and the
// selection rules of LEX and MEA, including refraction (an instantiation
// that has fired cannot fire again while it remains in the set).
//
// The set holds matches, not instantiations: a matcher hands it a
// production and its WMEs through InsertMatch and RemoveMatch (it is an
// ops5.MatchSink), and each entry keeps them by value. No delta builds
// an ops5.Instantiation: Select refills the set's one scratch
// instantiation with the match it picks, and Instantiations builds
// fresh ones for its listing.
//
// An instantiation's identity is its production's name plus its
// positive-CE time tags in LHS order — what Instantiation.Key spells as
// a string. The set never builds that string on a conflict-set delta:
// entries sit by value in hash buckets keyed by a uint64 fold of the
// same name and tags (identity), and a chain walk re-verifies name and
// tags (same). The string exists only where it leaves the process —
// FiredKeys, the log's refraction marks, the server's instantiation
// listing — and in the last tie-break of the ordering.
type Set struct {
	strategy Strategy
	items    bucket.Buckets[entry]
	n        int
	// selected is what Select returns, refilled on every call.
	selected ops5.Instantiation
}

// entry is one match: the production, the WMEs in LHS order and the
// ordering features cached at insert time (matches are immutable, so
// recency tags, the MEA goal tag and specificity never need recomputing
// during selection). The zero entry (nil prod) is a free slot of the
// bucket table.
type entry struct {
	prod  *ops5.Production
	fired bool
	mea   int
	spec  int
	// The time tags sorted descending are tagArr[:ntags], or more when
	// the LHS has more positive CEs than tagArr holds.
	ntags  int
	tagArr [8]int
	more   []int
	// The WMEs are wmeArr[:nwmes], or moreWMEs when the LHS has more
	// condition elements than wmeArr holds.
	nwmes    int
	wmeArr   [8]*ops5.WME
	moreWMEs []*ops5.WME
}

func (e *entry) tags() []int {
	if e.more != nil {
		return e.more
	}
	return e.tagArr[:e.ntags]
}

func (e *entry) wmes() []*ops5.WME {
	if e.moreWMEs != nil {
		return e.moreWMEs
	}
	return e.wmeArr[:e.nwmes]
}

// appendKey appends the entry's Instantiation.Key to buf.
func (e *entry) appendKey(buf []byte) []byte { return ops5.AppendKey(buf, e.prod, e.wmes()) }

// NewSet returns an empty conflict set using the given strategy.
func NewSet(strategy Strategy) *Set {
	return &Set{strategy: strategy}
}

// Strategy returns the set's conflict-resolution strategy.
func (s *Set) Strategy() Strategy { return s.strategy }

// Len returns the number of instantiations currently in the set.
func (s *Set) Len() int { return s.n }

const fnvPrime = 1099511628211

// hashName starts an identity hash with a production name.
func hashName(name string) uint64 {
	h := ops5.HashSeed
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * fnvPrime
	}
	return h
}

// hashTag folds one time tag into an identity hash.
func hashTag(h uint64, tag int) uint64 { return (h ^ uint64(tag)) * fnvPrime }

// identity folds a match's production name and positive-CE time tags,
// in order, into the key its entry is bucketed under.
func identity(p *ops5.Production, wmes []*ops5.WME) uint64 {
	h := hashName(p.Name)
	for _, w := range wmes {
		if w != nil {
			h = hashTag(h, w.TimeTag)
		}
	}
	return h
}

// same reports whether the entry holds the match of p over wmes, i.e.
// whether their Keys would be equal: one production name, and position
// for position the same time tag or the same absence of one.
func (e *entry) same(p *ops5.Production, wmes []*ops5.WME) bool {
	if e.prod != p && e.prod.Name != p.Name {
		return false
	}
	ew := e.wmes()
	if len(ew) != len(wmes) {
		return false
	}
	for i, w := range ew {
		if o := wmes[i]; w != o && (w == nil || o == nil || w.TimeTag != o.TimeTag) {
			return false
		}
	}
	return true
}

// find returns the bucket index of the entry for the match of p over
// wmes under identity id, and the entry preceding it in the chain; -1
// when the match is not in the set.
func (s *Set) find(id uint64, p *ops5.Production, wmes []*ops5.WME) (prev, i int32) {
	prev = -1
	for i = s.items.Head(id); i >= 0; prev, i = i, s.items.Next(i) {
		if s.items.At(i).same(p, wmes) {
			break
		}
	}
	return prev, i
}

// InsertMatch adds the match of p over wmes, copying wmes. Re-inserting
// an identical match (same production, same time tags) is a no-op that
// preserves its fired flag, so matchers may be idempotent.
func (s *Set) InsertMatch(p *ops5.Production, wmes []*ops5.WME) {
	s.insert(identity(p, wmes), p, wmes)
}

// RemoveMatch deletes the match of p over wmes by identity. Removing an
// absent match is a no-op.
func (s *Set) RemoveMatch(p *ops5.Production, wmes []*ops5.WME) {
	s.remove(identity(p, wmes), p, wmes)
}

// Insert adds an instantiation's match (see InsertMatch).
func (s *Set) Insert(in *ops5.Instantiation) { s.InsertMatch(in.Production, in.WMEs) }

// Remove deletes an instantiation's match (see RemoveMatch).
func (s *Set) Remove(in *ops5.Instantiation) { s.RemoveMatch(in.Production, in.WMEs) }

// MarkFired sets the refraction flag on the entry with the given key
// (as produced by Instantiation.Key). Marking an absent key is a no-op.
// Crash recovery (internal/durable) replays selection decisions through
// this, so a recovered set refuses to re-fire exactly the
// instantiations the original run already fired. The key's name and
// tags are folded into the identity hash Insert filed the entry under,
// so marking costs one probe; only the candidates on that chain have
// their keys spelled out to be compared.
func (s *Set) MarkFired(key string) { s.markFired(keyIdentity(key), key) }

// insert, remove and markFired do the work of their exported namesakes
// on the chain of identity hash id (which the collision tests choose
// themselves, to put unlike instantiations on one chain).
func (s *Set) insert(id uint64, p *ops5.Production, wmes []*ops5.WME) {
	if _, i := s.find(id, p, wmes); i >= 0 {
		return
	}
	e := s.items.At(s.items.Add(id, entry{
		prod:  p,
		mea:   meaTag(wmes),
		spec:  specificity(p),
		nwmes: len(wmes),
	}))
	if len(wmes) > len(e.wmeArr) {
		e.moreWMEs = slices.Clone(wmes)
	} else {
		copy(e.wmeArr[:], wmes)
	}
	tags := sortedTagsDesc(wmes, e.tagArr[:0])
	if e.ntags = len(tags); e.ntags > len(e.tagArr) {
		e.more = tags
	}
	s.n++
}

func (s *Set) remove(id uint64, p *ops5.Production, wmes []*ops5.WME) {
	if prev, i := s.find(id, p, wmes); i >= 0 {
		s.items.Unlink(id, prev, i)
		s.n--
	}
}

func (s *Set) markFired(id uint64, key string) {
	var buf [64]byte
	for i := s.items.Head(id); i >= 0; i = s.items.Next(i) {
		if e := s.items.At(i); string(e.appendKey(buf[:0])) == key {
			e.fired = true
			return
		}
	}
}

// keyIdentity computes from an Instantiation.Key string — a production
// name followed by one "|tag" or "|-" per condition element — the hash
// identity gives the instantiation itself. The name ends at the first
// '|': Production.Validate admits none inside a name. A segment that is
// no number folds in as zero: a key no instantiation spells lands on
// some chain, matches nothing there, and marks nothing.
func keyIdentity(key string) uint64 {
	name, rest, _ := strings.Cut(key, "|")
	h := hashName(name)
	for rest != "" {
		var seg string
		if seg, rest, _ = strings.Cut(rest, "|"); seg != "-" {
			tag, _ := strconv.Atoi(seg)
			h = hashTag(h, tag)
		}
	}
	return h
}

// FiredKeys returns the keys of the instantiations still in the set
// whose refraction flag is set, sorted for determinism. Snapshots
// persist these alongside working memory.
func (s *Set) FiredKeys() []string {
	var keys []string
	for i := int32(0); i < s.items.Slots(); i++ {
		if e := s.items.At(i); e.prod != nil && e.fired {
			keys = append(keys, string(e.appendKey(nil)))
		}
	}
	sort.Strings(keys)
	return keys
}

// Contains reports whether an identical instantiation is in the set.
func (s *Set) Contains(in *ops5.Instantiation) bool {
	_, i := s.find(identity(in.Production, in.WMEs), in.Production, in.WMEs)
	return i >= 0
}

// Instantiations returns the current instantiations in the set's
// strategy order, best first, each built for the caller.
func (s *Set) Instantiations() []*ops5.Instantiation {
	entries := make([]*entry, 0, s.n)
	for i := int32(0); i < s.items.Slots(); i++ {
		if e := s.items.At(i); e.prod != nil {
			entries = append(entries, e)
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		return s.better(entries[i], entries[j])
	})
	out := make([]*ops5.Instantiation, len(entries))
	for i, e := range entries {
		out[i] = ops5.NewInstantiation(e.prod, e.wmes())
	}
	return out
}

// Select picks the instantiation to fire under the set's strategy, or
// nil if every instantiation has already fired (or the set is empty) —
// the halting condition of the recognize-act cycle. The chosen match is
// marked fired (refraction) and returned in the set's one scratch
// instantiation, which is valid until the next Select: a caller that
// keeps it copies it. Select allocates nothing. Selection is a linear
// scan for the best unfired entry — better is a total order (the final
// tie-break is the unique key), so the entries' storage order cannot
// change the outcome.
func (s *Set) Select() *ops5.Instantiation {
	var best *entry
	for i := int32(0); i < s.items.Slots(); i++ {
		e := s.items.At(i)
		if e.prod == nil || e.fired {
			continue
		}
		if best == nil || s.better(e, best) {
			best = e
		}
	}
	if best == nil {
		return nil
	}
	best.fired = true
	s.selected.Reset(best.prod, best.wmes())
	return &s.selected
}

// better reports whether a should fire before b, comparing the
// features cached at insert time.
func (s *Set) better(a, b *entry) bool {
	if s.strategy == MEA {
		if a.mea != b.mea {
			return a.mea > b.mea
		}
	}
	// Recency: compare sorted-descending time tags lexicographically.
	at, bt := a.tags(), b.tags()
	for i := 0; i < len(at) && i < len(bt); i++ {
		if at[i] != bt[i] {
			return at[i] > bt[i]
		}
	}
	if len(at) != len(bt) {
		return len(at) > len(bt)
	}
	// Specificity: number of tests in the LHS.
	if a.spec != b.spec {
		return a.spec > b.spec
	}
	// Final deterministic tie-breaks: production order, then key.
	if a.prod.Order != b.prod.Order {
		return a.prod.Order < b.prod.Order
	}
	return keyLess(a, b)
}

// keyLess reports whether a's key sorts before b's, spelling both on
// the stack.
func keyLess(a, b *entry) bool {
	var ab, bb [64]byte
	return string(a.appendKey(ab[:0])) < string(b.appendKey(bb[:0]))
}

// meaTag returns the time tag of the WME matching the first positive CE.
func meaTag(wmes []*ops5.WME) int {
	for _, w := range wmes {
		if w != nil {
			return w.TimeTag
		}
	}
	return 0
}

// sortedTagsDesc returns the matched WMEs' time tags sorted descending,
// appended to buf (the caller's inline storage, so typical LHS sizes
// allocate nothing). Tag lists are a handful of entries, so a direct
// insertion sort beats sort.Sort and skips its interface allocation.
func sortedTagsDesc(wmes []*ops5.WME, buf []int) []int {
	tags := buf
	for _, w := range wmes {
		if w != nil {
			tags = append(tags, w.TimeTag)
		}
	}
	for i := 1; i < len(tags); i++ {
		for j := i; j > 0 && tags[j] > tags[j-1]; j-- {
			tags[j], tags[j-1] = tags[j-1], tags[j]
		}
	}
	return tags
}

// specificity counts the tests in a production's LHS: one per constant,
// disjunction or predicate term, plus one per class test.
func specificity(p *ops5.Production) int {
	n := 0
	for _, ce := range p.LHS {
		n++ // class test
		for _, at := range ce.Tests {
			n += len(at.Terms)
		}
	}
	return n
}
