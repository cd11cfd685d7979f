package ops5

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sym"
)

// TTLAttrName is the source spelling of the reserved time-to-live
// attribute. A numeric value N on an inserted element marks it as an
// event fact: the engine retracts it automatically once its logical
// clock has advanced N ticks past the insert (see engine.AdvanceClock).
// The attribute is otherwise ordinary — rules may declare, test, and
// copy it like any other.
const TTLAttrName = "__ttl"

// TTLAttr is the interned ID of TTLAttrName.
var TTLAttr = sym.Intern(TTLAttrName)

// Field is one attribute-value pair of a working-memory element, with
// the attribute as an interned symbol ID. A WME's fields are kept
// sorted by Attr, so lookup is a short scan or binary search over a
// dense, pointer-free 24-byte-per-entry slice — the row layout of the
// columnar working memory (internal/wm).
type Field struct {
	Attr sym.ID
	Val  Value
}

// WME is a working-memory element: a class symbol plus attribute-value
// fields, identified by a unique, monotonically increasing time tag.
// WMEs are immutable once created; "modify" is remove-then-make.
type WME struct {
	// TimeTag is the element's unique recency stamp. Higher is younger.
	TimeTag int

	class  sym.ID
	fields []Field // sorted by Attr
}

// NewWME builds a WME from a class and attribute/value pairs. The time
// tag is zero; working memory assigns the real tag on insertion.
// Repeated attributes keep the last value, matching map semantics.
func NewWME(class string, pairs ...any) *WME {
	if len(pairs)%2 != 0 {
		panic("ops5.NewWME: odd number of attribute/value arguments")
	}
	fields := make([]Field, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		attr, ok := pairs[i].(string)
		if !ok {
			panic(fmt.Sprintf("ops5.NewWME: attribute %v is not a string", pairs[i]))
		}
		fields = append(fields, Field{Attr: sym.Intern(attr), Val: toValue(pairs[i+1])})
	}
	return NewFact(sym.Intern(class), fields)
}

// NewFact builds a WME from an interned class ID and fields, taking
// ownership of the slice (it may be re-sorted and compacted in place).
// Repeated attributes keep the last occurrence.
func NewFact(class sym.ID, fields []Field) *WME { return new(WME).Init(class, fields) }

// Init makes w, a zero header, the untagged fact NewFact(class, fields)
// would build, and returns it. Working memory carves such headers from
// its slab (wm.Memory.Carve), so every element a session makes is built
// in place, its pointer fixed from the start.
func (w *WME) Init(class sym.ID, fields []Field) *WME {
	normalizeFields(&fields)
	w.class, w.fields = class, fields
	return w
}

// normalizeFields sorts fields by attribute and drops all but the last
// occurrence of a repeated attribute, in place. Insertion sort: field
// lists are short and often already sorted, and unlike sort.SliceStable
// it does not allocate (this runs for every RHS make and modify). A list
// already strictly sorted is not written to, so an element's own fields
// may be handed in (Engine.Load does).
func normalizeFields(fields *[]Field) {
	fs := *fields
	i := 1
	for i < len(fs) && fs[i-1].Attr < fs[i].Attr {
		i++
	}
	if i >= len(fs) {
		return
	}
	for ; i < len(fs); i++ {
		f := fs[i]
		j := i - 1
		for j >= 0 && fs[j].Attr > f.Attr {
			fs[j+1] = fs[j]
			j--
		}
		fs[j+1] = f
	}
	out := fs[:0]
	for i := 0; i < len(fs); i++ {
		if len(out) > 0 && out[len(out)-1].Attr == fs[i].Attr {
			out[len(out)-1] = fs[i] // later pair wins, as with a map
			continue
		}
		out = append(out, fs[i])
	}
	*fields = out
}

// toValue converts a native Go value into an OPS5 Value.
func toValue(x any) Value {
	switch v := x.(type) {
	case Value:
		return v
	case string:
		return Sym(v)
	case int:
		return Num(float64(v))
	case int64:
		return Num(float64(v))
	case float64:
		return Num(v)
	case nil:
		return Value{}
	default:
		panic(fmt.Sprintf("ops5: cannot convert %T to Value", x))
	}
}

// Class returns the element's class name.
func (w *WME) Class() string { return sym.Name(w.class) }

// ClassID returns the element's interned class symbol.
func (w *WME) ClassID() sym.ID { return w.class }

// Fields returns the element's attribute-value fields, sorted by
// attribute ID. The slice is the element's backing storage: read-only.
func (w *WME) Fields() []Field { return w.fields }

// Get returns the value of attribute attr, or the nil value if unset.
func (w *WME) Get(attr string) Value {
	id, ok := sym.Lookup(attr)
	if !ok {
		return Value{}
	}
	return w.GetID(id)
}

// GetID returns the value of the attribute with interned ID id, or the
// nil value if unset. Fields are sorted by ID; typical WMEs have a
// handful of fields, where a linear scan beats binary search.
func (w *WME) GetID(id sym.ID) Value {
	fs := w.fields
	if len(fs) > 8 {
		i := sort.Search(len(fs), func(i int) bool { return fs[i].Attr >= id })
		if i < len(fs) && fs[i].Attr == id {
			return fs[i].Val
		}
		return Value{}
	}
	for i := range fs {
		if fs[i].Attr == id {
			return fs[i].Val
		}
		if fs[i].Attr > id {
			break
		}
	}
	return Value{}
}

// Clone returns a deep copy of the WME (sharing no field storage).
func (w *WME) Clone() *WME {
	c := &WME{TimeTag: w.TimeTag, class: w.class}
	if len(w.fields) > 0 {
		c.fields = make([]Field, len(w.fields))
		copy(c.fields, w.fields)
	}
	return c
}

// AppendWithUpdates makes dst, a zero header, the untagged WME of w's
// class with the given fields replacing or extending w's — the "modify"
// re-make. updates is taken over and may be reordered; w is not
// changed. The new element's fields are built at the end of buf, which
// it returns extended by them; they are that extension, capped so that
// a later append to buf cannot reach them, and updates may itself lie
// in buf, before its end. The engine builds a firing's elements in one
// reused buffer this way, in headers carved from working memory's slab,
// and working memory copies each one's fields into its class arena at
// insert (InternInto).
func (w *WME) AppendWithUpdates(dst *WME, buf, updates []Field) []Field {
	normalizeFields(&updates)
	start := len(buf)
	i, j := 0, 0
	for i < len(w.fields) && j < len(updates) {
		switch {
		case w.fields[i].Attr < updates[j].Attr:
			buf = append(buf, w.fields[i])
			i++
		case w.fields[i].Attr > updates[j].Attr:
			buf = append(buf, updates[j])
			j++
		default:
			buf = append(buf, updates[j])
			i++
			j++
		}
	}
	buf = append(buf, w.fields[i:]...)
	buf = append(buf, updates[j:]...)
	dst.class, dst.fields = w.class, buf[start:len(buf):len(buf)]
	return buf
}

// Equal reports whether two WMEs have the same class and attributes,
// ignoring time tags. Both field slices are sorted by attribute ID, so
// this is one linear pass of integer compares.
func (w *WME) Equal(o *WME) bool {
	if w.class != o.class || len(w.fields) != len(o.fields) {
		return false
	}
	for i := range w.fields {
		if w.fields[i].Attr != o.fields[i].Attr || !w.fields[i].Val.Equal(o.fields[i].Val) {
			return false
		}
	}
	return true
}

// String renders the WME in OPS5 surface syntax with its time tag.
// Attributes print in lexical name order for stable output, independent
// of interning order.
func (w *WME) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d: (%s", w.TimeTag, atomString(sym.Name(w.class)))
	names := make([]string, len(w.fields))
	for i, f := range w.fields {
		names[i] = sym.Name(f.Attr)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, " ^%s %s", atomString(name), w.Get(name))
	}
	b.WriteString(")")
	return b.String()
}

// FieldArena is a slab allocator for WME field storage. Working memory
// keeps one per class, so the rows of a class pack into large
// contiguous blocks instead of one small heap object per element —
// cheaper to allocate, denser to scan, quieter for the GC (Fields are
// pointer-free). Slabs are append-only; space of deleted elements is
// reclaimed when no live element's slice pins its block.
type FieldArena struct {
	cur []Field
}

// arenaBlock is the slab granularity in fields (24 KiB blocks).
const arenaBlock = 1024

// alloc returns a zero-length slice with capacity n carved from the
// current slab, starting a new slab when the remainder is too small.
func (a *FieldArena) alloc(n int) []Field {
	if cap(a.cur)-len(a.cur) < n {
		size := arenaBlock
		if n > size {
			size = n
		}
		a.cur = make([]Field, 0, size)
	}
	s := a.cur[len(a.cur) : len(a.cur) : len(a.cur)+n]
	a.cur = a.cur[:len(a.cur)+n]
	return s[:0]
}

// InternInto re-homes the element's field storage into the arena. It is
// called by working memory when it adopts an inserted element, before
// any matcher sees it; afterwards the element is indistinguishable from
// one built in the arena.
func (w *WME) InternInto(a *FieldArena) {
	if len(w.fields) == 0 {
		return
	}
	dst := a.alloc(len(w.fields))
	dst = append(dst, w.fields...)
	w.fields = dst
}

// ChangeKind tags a working-memory change as an insertion or a deletion.
type ChangeKind uint8

// The two kinds of working-memory change.
const (
	Insert ChangeKind = iota
	Delete
)

// String renders the change kind.
func (k ChangeKind) String() string {
	if k == Insert {
		return "insert"
	}
	return "delete"
}

// Change is one working-memory change: the unit processed by every
// matcher. A "modify" action is decomposed into a Delete followed by an
// Insert of a fresh element.
type Change struct {
	Kind ChangeKind
	WME  *WME
}

// String renders the change.
func (c Change) String() string { return c.Kind.String() + " " + c.WME.String() }
