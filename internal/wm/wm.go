// Package wm implements OPS5 working memory as a columnar, interned
// fact store: element headers are carved from the memory's own slab
// (Carve), elements are grouped into per-class stores whose rows pack
// their fields into class-local arena slabs (ops5.FieldArena), a dense
// time-tag index resolves tags to rows in O(1), and deletion is
// swap-remove — no per-element allocation or map churn anywhere on the
// mutation path.
package wm

import (
	"fmt"
	"sort"

	"repro/internal/ops5"
	"repro/internal/sym"
)

// classStore holds the live elements of one class: a dense row slice
// (unordered — deletion swap-removes) and the arena their field storage
// packs into.
type classStore struct {
	class sym.ID
	rows  []*ops5.WME
	arena ops5.FieldArena
}

// tagRef locates a live element from its time tag: the class store and
// the element's current row. row is -1 for dead or never-assigned tags.
type tagRef struct {
	cls *classStore
	row int32
}

// Memory is a working memory. It assigns time tags on insertion and
// groups elements by class. Memory is not safe for concurrent mutation;
// the engine serializes act phases.
type Memory struct {
	nextTag int
	size    int
	// tags is the dense tag→row index, indexed by time tag. Tags are
	// never reused, so the slice only grows (8 bytes per tag ever
	// assigned — recency is the engine's core ordering, so the index
	// stays hot).
	tags []tagRef
	// classes maps a class symbol to its store; order preserves first
	// appearance for deterministic iteration.
	classes map[sym.ID]*classStore
	order   []*classStore
	// slab holds the headers of the elements the session makes (Carve).
	slab ops5.Slab[ops5.WME]
}

// New returns an empty working memory. Time tags start at 1.
func New() *Memory {
	return &Memory{
		nextTag: 1,
		tags:    make([]tagRef, 1, 64), // tags[0] unused; tag 0 is "unassigned"
		classes: make(map[sym.ID]*classStore),
	}
}

// Size returns the number of elements currently in working memory.
func (m *Memory) Size() int { return m.size }

// NextTag returns the time tag the next insertion will receive.
func (m *Memory) NextTag() int { return m.nextTag }

// Carve returns a zero element header from the memory's slab, for an
// element that is to be inserted into this memory: the engine's make
// and modify, and psmd's asserts and events, build theirs in one
// (ops5.WME.Init, AppendWithUpdates) before the batch that inserts them,
// so the element's pointer never changes. Its fields stay in the
// caller's buffer until insert copies them into the class arena. Insert
// and Apply take elements from anywhere (recovery builds its own), and
// a header carved for a batch that is refused is simply never used.
func (m *Memory) Carve() *ops5.WME { return m.slab.New() }

// store returns (creating if needed) the class store for class.
func (m *Memory) store(class sym.ID) *classStore {
	cs := m.classes[class]
	if cs == nil {
		cs = &classStore{class: class}
		m.classes[class] = cs
		m.order = append(m.order, cs)
	}
	return cs
}

// place records w in its class store and the tag index. w.TimeTag must
// already be set and covered by m.tags.
func (m *Memory) place(w *ops5.WME) {
	cs := m.store(w.ClassID())
	w.InternInto(&cs.arena)
	m.tags[w.TimeTag] = tagRef{cls: cs, row: int32(len(cs.rows))}
	cs.rows = append(cs.rows, w)
	m.size++
}

// growTags extends the tag index to cover tag.
func (m *Memory) growTags(tag int) {
	for len(m.tags) <= tag {
		m.tags = append(m.tags, tagRef{row: -1})
	}
}

// Insert adds the element, assigning it the next fresh time tag, and
// returns it. The element must not carry a caller-set tag — restore and
// replay paths that must preserve historical tags use InsertWithTag;
// silently overwriting a set tag hid exactly that class of bug.
func (m *Memory) Insert(w *ops5.WME) (*ops5.WME, error) {
	if w.TimeTag != 0 {
		return nil, fmt.Errorf("wm: insert of element already tagged %d (use InsertWithTag)", w.TimeTag)
	}
	w.TimeTag = m.nextTag
	m.nextTag++
	m.growTags(w.TimeTag)
	m.place(w)
	return w, nil
}

// InsertWithTag adds an element that keeps its caller-set time tag (the
// restore/replay path). It rejects unset tags and tag reuse — a tag
// that is live, or one an earlier insertion already consumed — and
// advances the tag counter past the inserted tag.
func (m *Memory) InsertWithTag(w *ops5.WME) error {
	tag := w.TimeTag
	if tag <= 0 {
		return fmt.Errorf("wm: InsertWithTag requires a positive tag, got %d", tag)
	}
	if tag < m.nextTag {
		if tag < len(m.tags) && m.tags[tag].row >= 0 {
			return fmt.Errorf("wm: tag %d is already live", tag)
		}
		return fmt.Errorf("wm: tag %d was already consumed (next is %d)", tag, m.nextTag)
	}
	m.nextTag = tag + 1
	m.growTags(tag)
	m.place(w)
	return nil
}

// Delete removes the element with the given time tag and returns it.
// The class store swap-removes the row; the moved row's tag entry is
// patched, so the index stays O(1) exact.
func (m *Memory) Delete(tag int) (*ops5.WME, error) {
	if tag <= 0 || tag >= len(m.tags) || m.tags[tag].row < 0 {
		return nil, fmt.Errorf("wm: no element with time tag %d", tag)
	}
	ref := m.tags[tag]
	cs, row := ref.cls, int(ref.row)
	w := cs.rows[row]
	last := len(cs.rows) - 1
	if row != last {
		moved := cs.rows[last]
		cs.rows[row] = moved
		m.tags[moved.TimeTag].row = int32(row)
	}
	cs.rows[last] = nil
	cs.rows = cs.rows[:last]
	m.tags[tag] = tagRef{row: -1}
	m.size--
	return w, nil
}

// Get returns the element with the given time tag, if present.
func (m *Memory) Get(tag int) (*ops5.WME, bool) {
	if tag <= 0 || tag >= len(m.tags) || m.tags[tag].row < 0 {
		return nil, false
	}
	ref := m.tags[tag]
	return ref.cls.rows[ref.row], true
}

// Elements returns all elements ordered by time tag (oldest first).
func (m *Memory) Elements() []*ops5.WME {
	out := make([]*ops5.WME, 0, m.size)
	for _, cs := range m.order {
		out = append(out, cs.rows...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TimeTag < out[j].TimeTag })
	return out
}

// OfClass returns the elements of one class ordered by time tag.
func (m *Memory) OfClass(class string) []*ops5.WME {
	id, ok := sym.Lookup(class)
	if !ok {
		return nil
	}
	cs := m.classes[id]
	if cs == nil {
		return nil
	}
	out := make([]*ops5.WME, len(cs.rows))
	copy(out, cs.rows)
	sort.Slice(out, func(i, j int) bool { return out[i].TimeTag < out[j].TimeTag })
	return out
}

// Classes returns the live class stores' classes and row slices in
// first-appearance order. The row slices are the store's backing
// storage (unordered): read-only, valid until the next mutation. It is
// the raw-column access snapshot encoding uses (internal/durable).
func (m *Memory) Classes() []ClassRows {
	out := make([]ClassRows, 0, len(m.order))
	for _, cs := range m.order {
		if len(cs.rows) == 0 {
			continue
		}
		out = append(out, ClassRows{Class: cs.class, Rows: cs.rows})
	}
	return out
}

// ClassRows is one class's live rows (see Classes).
type ClassRows struct {
	Class sym.ID
	Rows  []*ops5.WME
}

// Restore primes an empty memory with recovered elements that keep
// their original time tags (gaps included), and sets the tag counter so
// subsequent insertions continue the original sequence. It is the
// snapshot-load path of crash recovery (internal/durable); Apply remains
// the only mutation path afterwards.
func (m *Memory) Restore(wmes []*ops5.WME, nextTag int) error {
	if m.size != 0 {
		return fmt.Errorf("wm: restore into non-empty memory (%d elements)", m.size)
	}
	if nextTag < 1 {
		return fmt.Errorf("wm: restored next tag %d < 1", nextTag)
	}
	for _, w := range wmes {
		if w.TimeTag <= 0 || w.TimeTag >= nextTag {
			return fmt.Errorf("wm: restored tag %d outside [1,%d)", w.TimeTag, nextTag)
		}
		if w.TimeTag < len(m.tags) && m.tags[w.TimeTag].row >= 0 {
			return fmt.Errorf("wm: duplicate restored tag %d", w.TimeTag)
		}
		m.growTags(w.TimeTag)
		m.place(w)
	}
	m.nextTag = nextTag
	m.growTags(nextTag - 1)
	return nil
}

// Apply applies a batch of changes to the stored state: untagged
// inserts are assigned fresh tags, tagged inserts go through
// InsertWithTag (the replay path), deletes remove by the WME's tag. It
// returns the changes with insert WMEs carrying their assigned tags
// (the same slice, modified in place).
func (m *Memory) Apply(changes []ops5.Change) ([]ops5.Change, error) {
	for i := range changes {
		switch changes[i].Kind {
		case ops5.Insert:
			if changes[i].WME.TimeTag == 0 {
				if _, err := m.Insert(changes[i].WME); err != nil {
					return nil, err
				}
			} else if err := m.InsertWithTag(changes[i].WME); err != nil {
				return nil, err
			}
		case ops5.Delete:
			if _, err := m.Delete(changes[i].WME.TimeTag); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("wm: unknown change kind %d", changes[i].Kind)
		}
	}
	return changes, nil
}
