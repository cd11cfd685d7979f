package durable

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"

	"repro/internal/engine"
	"repro/internal/ops5"
	"repro/internal/sym"
	"repro/internal/wm"
)

// The one on-disk layout. snapshot.json and every wal.log record are
// written by the same encoder and read by the same bounds-checked
// reader: scalars as unsigned varints, strings length-prefixed, and
// facts as fields whose symbols are references into a table of names
// that the same snapshot or record carries. Names, never process symbol
// IDs, reach the disk, so a file loads — and a WAL frame shipped
// verbatim to a replica replays — in a process that interned its
// symbols in any other order: loading is re-intern plus integer remap.
//
// Snapshot (the file keeps its first name, snapshot.json):
//
//	magic    "PS3\x00" (4 bytes)
//	seq      the WAL sequence the snapshot captures
//	nextTag  working memory's tag counter
//	counters cycles, fired, totalChanges, halted (1 byte), clock, expired
//	expiries count, then per pending expiry: time tag, deadline — not
//	         derivable from working memory, because a deadline bakes in
//	         the clock at insert time
//	fired    strings: the conflict set's refraction marks
//	symbols  strings: the i-th name (0-based) is local symbol ID i+1;
//	         local ID 0 is "no symbol". Only referenced symbols, in
//	         first-use order, so IDs are dense however interning went.
//	classes  count, then per class: class local ID, row count, and per
//	         row: time tag, fields
//	footer   CRC32 (IEEE) of everything before it, 4 bytes little-endian
//
// WAL record (the payload of one length+CRC32 frame, see wal.go):
//
//	version  1 byte, recVersion
//	seq      the record's sequence number — first, so a scan places a
//	         record without decoding its body
//	counters as above: absolute values after the batch, so replay sets
//	         rather than accumulates them. The clock is the determinism
//	         anchor of event expiry: replay restores it before applying
//	         the batch, so TTL deadlines recompute to their original
//	         values, and a record may carry a clock advance and no
//	         change at all (losing it would rewind time).
//	fired    strings: the refraction marks the batch's cycle burned
//	symbols  strings, as above, local to the record
//	changes  count, then per change: kind (1 byte, ops5.Insert or
//	         ops5.Delete) and time tag; an insert adds the class local
//	         ID and the fields, a delete is resolved by tag on replay
//
//	strings  count, then count length-prefixed byte strings
//	fields   count, then per field: attribute local ID, value kind (1
//	         byte), then for a symbol its local ID, for a number its
//	         float64 bits (8 bytes little-endian), for nil nothing
//
// A record's fields are in attribute-name order, so its bytes are a
// function of the batch alone; a snapshot row's are in the writer's
// symbol-ID order, working memory's own. The reader accepts only what
// the writer produces — minimal varints, a symbol table in first-use
// order without an unused or a repeated name, no repeated attribute, no
// trailing byte — and checks every count against the bytes that remain
// before it allocates for it. Anything else is refused, never guessed
// at: the formats before this one (JSON and "PS2\x00" snapshots, JSON
// records) are read by the versions that wrote them, and a clean stop
// of those leaves exactly this snapshot and an empty WAL.

// snapMagic opens every snapshot.
var snapMagic = [4]byte{'P', 'S', '3', 0}

// recVersion opens every WAL record.
const recVersion = 1

// counters is the engine's scalar state as both files carry it.
type counters struct {
	Cycles, Fired, TotalChanges int
	Halted                      bool
	Clock                       int64
	Expired                     int
}

func countersOf(e *engine.Engine) counters {
	return counters{e.Cycles, e.Fired, e.TotalChanges, e.Halted, e.Clock, e.Expired}
}

func (c counters) restore(e *engine.Engine) {
	e.Cycles, e.Fired, e.TotalChanges = c.Cycles, c.Fired, c.TotalChanges
	e.Halted, e.Clock, e.Expired = c.Halted, c.Clock, c.Expired
}

// snapState is a snapshot in memory: what Snapshot hands the encoder
// and what the decoder hands Recover. Rows carry their time tags.
type snapState struct {
	Seq     int64
	NextTag int
	counters
	ExpTags      []int
	ExpDeadlines []int64
	FiredKeys    []string
	Classes      []wm.ClassRows
}

// rows counts the snapshot's working-memory elements.
func (st *snapState) rows() int {
	n := 0
	for _, cr := range st.Classes {
		n += len(cr.Rows)
	}
	return n
}

// wmes flattens the class rows for engine.Restore.
func (st *snapState) wmes() []*ops5.WME {
	out := make([]*ops5.WME, 0, st.rows())
	for _, cr := range st.Classes {
		out = append(out, cr.Rows...)
	}
	return out
}

// recState is a WAL record in memory: one committed change batch, the
// refraction marks of its cycle, and the counters after it.
type recState struct {
	Seq int64
	counters
	FiredKeys []string
	Changes   []ops5.Change
}

// encoder writes one snapshot or record. Facts reference symbols by
// local ID, so they go to body while the table accumulates; finish puts
// the table ahead of them.
type encoder struct {
	buf, body []byte
	local     map[sym.ID]uint64
	names     []string
}

// ref writes a symbol reference, assigning dense local IDs (from 1) in
// first-use order.
func (e *encoder) ref(id sym.ID) {
	l, ok := e.local[id]
	if !ok && id != sym.None {
		e.names = append(e.names, sym.Name(id))
		l = uint64(len(e.names))
		e.local[id] = l
	}
	e.body = binary.AppendUvarint(e.body, l)
}

func (e *encoder) fields(fields []ops5.Field) {
	e.body = binary.AppendUvarint(e.body, uint64(len(fields)))
	for _, f := range fields {
		e.ref(f.Attr)
		e.body = append(e.body, byte(f.Val.Kind))
		switch f.Val.Kind {
		case ops5.SymValue:
			e.ref(f.Val.SymID())
		case ops5.NumValue:
			e.body = binary.LittleEndian.AppendUint64(e.body, math.Float64bits(f.Val.Num))
		}
	}
}

func (e *encoder) finish() []byte {
	return append(appendStrings(e.buf, e.names), e.body...)
}

func appendCounters(buf []byte, c counters) []byte {
	buf = binary.AppendUvarint(buf, uint64(c.Cycles))
	buf = binary.AppendUvarint(buf, uint64(c.Fired))
	buf = binary.AppendUvarint(buf, uint64(c.TotalChanges))
	if c.Halted {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.AppendUvarint(buf, uint64(c.Clock))
	return binary.AppendUvarint(buf, uint64(c.Expired))
}

func appendStrings(buf []byte, ss []string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ss)))
	for _, s := range ss {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	return buf
}

// encodeSnapshot serializes a snapshot straight off working memory's
// class rows (wm.Memory.Classes — no per-element string round trip).
func encodeSnapshot(st snapState) []byte {
	nRows := st.rows()
	e := &encoder{
		buf:   make([]byte, 0, 64+32*nRows),
		body:  make([]byte, 0, 32*nRows),
		local: make(map[sym.ID]uint64, 64),
	}
	e.buf = append(e.buf, snapMagic[:]...)
	e.buf = binary.AppendUvarint(e.buf, uint64(st.Seq))
	e.buf = binary.AppendUvarint(e.buf, uint64(st.NextTag))
	e.buf = appendCounters(e.buf, st.counters)
	e.buf = binary.AppendUvarint(e.buf, uint64(len(st.ExpTags)))
	for i, tag := range st.ExpTags {
		e.buf = binary.AppendUvarint(e.buf, uint64(tag))
		e.buf = binary.AppendUvarint(e.buf, uint64(st.ExpDeadlines[i]))
	}
	e.buf = appendStrings(e.buf, st.FiredKeys)
	e.body = binary.AppendUvarint(e.body, uint64(len(st.Classes)))
	for _, cr := range st.Classes {
		e.ref(cr.Class)
		e.body = binary.AppendUvarint(e.body, uint64(len(cr.Rows)))
		for _, w := range cr.Rows {
			e.body = binary.AppendUvarint(e.body, uint64(w.TimeTag))
			e.fields(w.Fields())
		}
	}
	out := e.finish()
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

// encodeRecord serializes a record and returns it framed: what lands in
// wal.log and what WAL shipping sends.
func encodeRecord(rec recState) ([]byte, error) {
	e := &encoder{
		buf:   make([]byte, headerSize, 256),
		body:  make([]byte, 0, 128),
		local: make(map[sym.ID]uint64, 8),
		names: make([]string, 0, 8),
	}
	e.buf = append(e.buf, recVersion)
	e.buf = binary.AppendUvarint(e.buf, uint64(rec.Seq))
	e.buf = appendCounters(e.buf, rec.counters)
	e.buf = appendStrings(e.buf, rec.FiredKeys)
	e.body = binary.AppendUvarint(e.body, uint64(len(rec.Changes)))
	byName := make([]ops5.Field, 0, 8)
	for _, ch := range rec.Changes {
		e.body = append(e.body, byte(ch.Kind))
		e.body = binary.AppendUvarint(e.body, uint64(ch.WME.TimeTag))
		if ch.Kind == ops5.Insert {
			e.ref(ch.WME.ClassID())
			byName = append(byName[:0], ch.WME.Fields()...)
			slices.SortFunc(byName, func(a, b ops5.Field) int {
				return cmp.Compare(sym.Name(a.Attr), sym.Name(b.Attr))
			})
			e.fields(byName)
		}
	}
	return sealFrame(e.finish())
}

// reader decodes the layout with bounds checking. The first failure
// sticks; every later read returns zero.
type reader struct {
	b    []byte
	off  int
	err  error
	syms []sym.ID // local symbol ID -> process ID; syms[0] is sym.None
	used int      // local IDs referenced so far
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("durable: byte %d: %s", r.off, fmt.Sprintf(format, args...))
	}
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	// A final zero byte only pads the value; the writer never emits one.
	if n <= 0 || n > 1 && r.b[r.off+n-1] == 0 {
		r.fail("truncated, oversized or padded varint")
		return 0
	}
	r.off += n
	return v
}

// count reads the number of items that follow. Every item takes at
// least one byte, so a count beyond the bytes that remain is corrupt —
// and is refused before anything is allocated for it.
func (r *reader) count() int {
	n := r.uvarint()
	if n > uint64(len(r.b)-r.off) {
		r.fail("count %d exceeds the %d bytes that remain", n, len(r.b)-r.off)
		return 0
	}
	return int(n)
}

func (r *reader) bytes(n int) []byte {
	if r.err == nil && n > len(r.b)-r.off {
		r.fail("truncated %d-byte run", n)
	}
	if r.err != nil {
		return nil
	}
	r.off += n
	return r.b[r.off-n : r.off]
}

func (r *reader) byte1() byte {
	if b := r.bytes(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *reader) counters() counters {
	var c counters
	c.Cycles, c.Fired, c.TotalChanges = int(r.uvarint()), int(r.uvarint()), int(r.uvarint())
	halted := r.byte1()
	if halted > 1 {
		r.fail("halted flag %d", halted)
	}
	c.Halted, c.Clock, c.Expired = halted == 1, int64(r.uvarint()), int(r.uvarint())
	return c
}

func (r *reader) strings() []string {
	out := make([]string, r.count())
	for i := range out {
		out[i] = string(r.bytes(r.count()))
	}
	return out
}

// table reads the symbol table and re-interns it into the process
// table: the remap from local ID to current process ID.
func (r *reader) table() {
	names := r.strings()
	r.syms = make([]sym.ID, 1, len(names)+1)
	for _, name := range names {
		r.syms = append(r.syms, sym.Intern(name))
	}
	ids := slices.Clone(r.syms[1:])
	slices.Sort(ids)
	if len(slices.Compact(ids)) != len(names) {
		r.fail("symbol table repeats a name")
	}
}

// sym reads a symbol reference.
func (r *reader) sym() sym.ID {
	l := r.uvarint()
	if l == uint64(r.used)+1 && l < uint64(len(r.syms)) {
		r.used++
	} else if l > uint64(r.used) {
		r.fail("symbol reference %d, with %d of %d introduced", l, r.used, len(r.syms)-1)
		return sym.None
	}
	return r.syms[l]
}

func (r *reader) fields() []ops5.Field {
	fields := make([]ops5.Field, r.count())
	for i := range fields {
		fields[i].Attr = r.sym()
		switch kind := ops5.ValueKind(r.byte1()); kind {
		case ops5.NilValue:
		case ops5.SymValue:
			fields[i].Val = ops5.SymID(r.sym())
		case ops5.NumValue:
			if bits := r.bytes(8); bits != nil {
				fields[i].Val = ops5.Num(math.Float64frombits(binary.LittleEndian.Uint64(bits)))
			}
		default:
			r.fail("value kind %d", kind)
		}
	}
	return fields
}

// done is the decoders' last check: everything read, every symbol used.
func (r *reader) done() error {
	if r.err == nil && r.off != len(r.b) {
		r.fail("%d trailing bytes", len(r.b)-r.off)
	}
	if r.err == nil && r.used != len(r.syms)-1 {
		r.fail("symbol table holds %d names, %d referenced", len(r.syms)-1, r.used)
	}
	return r.err
}

// snapshotSeq returns the WAL sequence a snapshot captures from its
// header alone — the standby path, which stores snapshots opaquely and
// only needs their position; the body is validated when the standby is
// promoted and the snapshot loads.
func snapshotSeq(data []byte) (int64, error) {
	if len(data) < len(snapMagic) || [4]byte(data[:4]) != snapMagic {
		return 0, fmt.Errorf("durable: not a PS3 snapshot (written by another version? see README, Upgrading a data directory)")
	}
	v, n := binary.Uvarint(data[len(snapMagic):])
	if n <= 0 {
		return 0, fmt.Errorf("durable: truncated snapshot header")
	}
	return int64(v), nil
}

// decodeSnapshot is the one snapshot decoder.
func decodeSnapshot(data []byte) (snapState, error) {
	var st snapState
	if _, err := snapshotSeq(data); err != nil {
		return st, err
	}
	if len(data) < len(snapMagic)+4 {
		return st, fmt.Errorf("durable: snapshot too short for its CRC footer")
	}
	body, footer := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(footer); got != want {
		return st, fmt.Errorf("durable: snapshot CRC mismatch (%08x != %08x)", got, want)
	}
	r := &reader{b: body, off: len(snapMagic)}
	st.Seq, st.NextTag = int64(r.uvarint()), int(r.uvarint())
	st.counters = r.counters()
	nExp := r.count()
	st.ExpTags, st.ExpDeadlines = make([]int, nExp), make([]int64, nExp)
	for i := range st.ExpTags {
		st.ExpTags[i], st.ExpDeadlines[i] = int(r.uvarint()), int64(r.uvarint())
	}
	st.FiredKeys = r.strings()
	r.table()
	st.Classes = make([]wm.ClassRows, r.count())
	for c := range st.Classes {
		class := r.sym()
		rows := make([]*ops5.WME, r.count())
		for i := range rows {
			tag := int(r.uvarint())
			fields := r.fields()
			n := len(fields)
			w := ops5.NewFact(class, fields)
			if len(w.Fields()) != n {
				r.fail("row repeats an attribute")
			}
			if r.err != nil {
				return st, r.err
			}
			w.TimeTag = tag
			rows[i] = w
		}
		st.Classes[c] = wm.ClassRows{Class: class, Rows: rows}
	}
	return st, r.done()
}

// recordSeq returns a record's sequence number from its header alone —
// what the WAL scan needs to place a record.
func recordSeq(payload []byte) (int64, error) {
	if len(payload) == 0 || payload[0] != recVersion {
		return 0, fmt.Errorf("not a version-%d WAL record (written by another version? see README, Upgrading a data directory)", recVersion)
	}
	v, n := binary.Uvarint(payload[1:])
	if n <= 0 {
		return 0, fmt.Errorf("truncated WAL record header")
	}
	return int64(v), nil
}

// decodeRecord is the one record decoder. Inserts come back as facts
// carrying their logged time tag, deletes as a bare tag, which
// engine.Replay resolves to the live element.
func decodeRecord(payload []byte) (recState, error) {
	var rec recState
	if _, err := recordSeq(payload); err != nil {
		return rec, err
	}
	r := &reader{b: payload, off: 1}
	rec.Seq = int64(r.uvarint())
	rec.counters = r.counters()
	rec.FiredKeys = r.strings()
	r.table()
	rec.Changes = make([]ops5.Change, r.count())
	for i := range rec.Changes {
		kind, tag := ops5.ChangeKind(r.byte1()), int(r.uvarint())
		var w *ops5.WME
		switch kind {
		case ops5.Delete:
			w = &ops5.WME{}
		case ops5.Insert:
			class := r.sym()
			fields := r.fields()
			for j := 1; j < len(fields); j++ {
				if sym.Name(fields[j-1].Attr) >= sym.Name(fields[j].Attr) {
					r.fail("fields out of attribute-name order")
				}
			}
			w = ops5.NewFact(class, fields)
		default:
			r.fail("change kind %d", kind)
		}
		if r.err != nil {
			return rec, r.err
		}
		w.TimeTag = tag
		rec.Changes[i] = ops5.Change{Kind: kind, WME: w}
	}
	return rec, r.done()
}
