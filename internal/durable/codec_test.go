package durable

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/sym"
)

// midRunManners returns a Manners engine a few cycles into its run, so
// the conflict set and the refraction marks are non-trivial.
func midRunManners(t testing.TB, cycles int) *engine.Engine {
	t.Helper()
	sys := newManners(t, core.SerialRete, false)
	sys.Engine.Load(mannersWM(t))
	for i := 0; i < cycles; i++ {
		if ok, err := sys.Engine.Step(); err != nil || !ok {
			t.Fatalf("Step %d: ok=%v err=%v", i, ok, err)
		}
	}
	return sys.Engine
}

// snapStateOf captures an engine the way Log.Snapshot does.
func snapStateOf(e *engine.Engine, seq int64) snapState {
	st := snapState{
		Seq: seq, NextTag: e.WM.NextTag(), counters: countersOf(e),
		FiredKeys: e.CS.FiredKeys(), Classes: e.WM.Classes(),
	}
	st.ExpTags, st.ExpDeadlines = e.Expiries()
	return st
}

// TestSnapshotCodecRoundTrip exercises the codec directly: encode from
// working memory's raw columns, decode, and compare every header field
// and element.
func TestSnapshotCodecRoundTrip(t *testing.T) {
	e := midRunManners(t, 10)
	data := encodeSnapshot(snapStateOf(e, 42))

	if seq, err := snapshotSeq(data); err != nil || seq != 42 {
		t.Fatalf("snapshotSeq = %d, %v; want 42", seq, err)
	}
	st, err := decodeSnapshot(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if st.Seq != 42 || st.NextTag != e.WM.NextTag() || st.counters != countersOf(e) {
		t.Fatalf("header mismatch: %+v", st)
	}
	if len(st.FiredKeys) != len(e.CS.FiredKeys()) {
		t.Fatalf("fired keys: %d != %d", len(st.FiredKeys), len(e.CS.FiredKeys()))
	}
	want := map[int]string{}
	for _, w := range e.WM.Elements() {
		want[w.TimeTag] = w.String()
	}
	wmes := st.wmes()
	if len(wmes) != len(want) {
		t.Fatalf("decoded %d WMEs, want %d", len(wmes), len(want))
	}
	for _, w := range wmes {
		if want[w.TimeTag] != w.String() {
			t.Fatalf("tag %d: decoded %q, want %q", w.TimeTag, w.String(), want[w.TimeTag])
		}
	}
}

// TestSnapshotRejectsCorruption flips each region of a valid snapshot
// and requires the loader to fail loudly rather than decode garbage:
// CRC damage, truncation, trailing junk and the snapshot formats of
// earlier versions are all errors.
func TestSnapshotRejectsCorruption(t *testing.T) {
	data := encodeSnapshot(snapStateOf(midRunManners(t, 0), 7))
	if _, err := decodeSnapshot(data); err != nil {
		t.Fatalf("pristine snapshot failed to decode: %v", err)
	}

	for _, off := range []int{5, len(data) / 2, len(data) - 5} {
		bad := bytes.Clone(data)
		bad[off] ^= 0x40
		if _, err := decodeSnapshot(bad); err == nil {
			t.Errorf("bit flip at %d decoded without error", off)
		}
	}
	for _, cut := range []int{len(data) - 1, len(data) / 2, 6} {
		if _, err := decodeSnapshot(data[:cut]); err == nil {
			t.Errorf("truncation to %d bytes decoded without error", cut)
		}
	}
	if _, err := decodeSnapshot(append(bytes.Clone(data), 0xEE)); err == nil {
		t.Error("trailing junk decoded without error")
	}
	ps2 := bytes.Clone(data)
	ps2[2] = '2'
	for name, old := range map[string][]byte{"PS2": sealSnapshot(ps2[:len(ps2)-4]), "v1 JSON": []byte(`{"seq":7,"next_tag":1,"wmes":[]}`)} {
		if _, err := decodeSnapshot(old); err == nil || !strings.Contains(err.Error(), "not a PS3 snapshot") {
			t.Errorf("%s snapshot: err = %v, want a refusal that names the format", name, err)
		}
		if _, err := snapshotSeq(old); err == nil {
			t.Errorf("%s snapshot: snapshotSeq accepted it", name)
		}
	}
}

// sealSnapshot appends the CRC footer to a snapshot body.
func sealSnapshot(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(bytes.Clone(body), crc32.ChecksumIEEE(body))
}

// goldenRecord is one framed WAL record as another process wrote it:
// seq 7, counters 3/4/9, halted, clock 12, expired 2, two refraction
// marks, then a delete of tag 5 and two inserts. It pins the record
// layout, and the process that wrote it interned the vocabulary in
// source order, which the test below never does.
const goldenRecord = "8a0000002ed73992" + // frame: length, CRC32
	"0107030409010c02" + // version, seq, counters
	"020670313a312c320470323a33" + // fired keys
	"070b7870726f632d6f726465720b7870726f632d616c7068610a7870726f632d62657461087870726f632d7631" + // symbols
	"0b7870726f632d67616d6d61087870726f632d76320b7870726f632d64656c7461" +
	"03" + "0105" + // three changes; delete tag 5
	"000801030202000000000000f83f0301040500" + // insert 8: class 1, alpha=1.5 beta=v1 gamma=nil
	"00090102020106070200000000000008c0" // insert 9: class 1, alpha=v2 delta=-3

// goldenRecordChanges is what goldenRecord's change list decodes to.
var goldenRecordChanges = []string{
	"delete 5: (||)",
	`insert 8: (xproc-order ^xproc-alpha 1.5 ^xproc-beta xproc-v1 ^xproc-gamma nil)`,
	`insert 9: (xproc-order ^xproc-alpha xproc-v2 ^xproc-delta -3)`,
}

// TestRecordSymbolicAcrossInterningOrders is the property WAL shipping
// rests on: a frame carries names, so it decodes to the same changes in
// a process whose symbol table grew in any other order, and it
// re-encodes there to the same bytes.
func TestRecordSymbolicAcrossInterningOrders(t *testing.T) {
	vocab := []string{"xproc-order", "xproc-alpha", "xproc-beta", "xproc-gamma", "xproc-delta", "xproc-v1", "xproc-v2"}
	rand.Shuffle(len(vocab), func(i, j int) { vocab[i], vocab[j] = vocab[j], vocab[i] })
	for _, name := range vocab {
		sym.Intern("xproc-pad-" + name) // and not densely either
		sym.Intern(name)
	}
	frame, err := hex.DecodeString(goldenRecord)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := DecodeFrame(bytes.NewReader(frame))
	if err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	if seq, err := recordSeq(payload); err != nil || seq != 7 {
		t.Fatalf("recordSeq = %d, %v; want 7", seq, err)
	}
	rec, err := decodeRecord(payload)
	if err != nil {
		t.Fatalf("decodeRecord: %v", err)
	}
	if rec.Seq != 7 || rec.counters != (counters{3, 4, 9, true, 12, 2}) ||
		strings.Join(rec.FiredKeys, "|") != "p1:1,2|p2:3" {
		t.Fatalf("header = %+v", rec)
	}
	if len(rec.Changes) != len(goldenRecordChanges) {
		t.Fatalf("decoded %d changes, want %d", len(rec.Changes), len(goldenRecordChanges))
	}
	for i, ch := range rec.Changes {
		if got := ch.String(); got != goldenRecordChanges[i] {
			t.Errorf("change %d = %s, want %s", i, got, goldenRecordChanges[i])
		}
	}
	again, err := encodeRecord(rec)
	if err != nil || !bytes.Equal(again, frame) {
		t.Fatalf("re-encoded under this process's interning order (err %v):\n got %x\nwant %x", err, again, frame)
	}
}

// decodeBudget bounds what decoding n input bytes may allocate: every
// count is checked against the bytes that remain, so the worst input
// buys a fixed number of heap bytes per input byte.
func decodeBudget(n int) uint64 { return 128*uint64(n) + 16<<10 }

// allocatedBy reports the heap bytes f allocates. Interning a name new
// to the process grows the symbol table by an amount that has nothing
// to do with the input, so a run over budget is measured once more, now
// that every name is known.
func allocatedBy(budget uint64, f func()) uint64 {
	var before, after runtime.MemStats
	for try := 0; ; try++ {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n <= budget || try == 1 {
			return n
		}
	}
}

// FuzzDecodeSnapshot: no input panics the snapshot decoder or makes it
// allocate beyond decodeBudget, and whatever it accepts is a fixed
// point of decode-encode. (Byte identity with the input cannot be
// asked of a snapshot: its rows keep the writer's symbol-ID field
// order, which another process re-sorts.) Seeds, in testdata/fuzz: a
// mid-run Manners snapshot, and two CRC-valid snapshots whose fired-key
// count and first field count are 2^60 — each a makeslice panic before
// the reader checked counts.
func FuzzDecodeSnapshot(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		// The input is a snapshot without its footer: a mutated byte
		// would otherwise only ever exercise the CRC check.
		data := sealSnapshot(body)
		var st snapState
		var err error
		budget := decodeBudget(len(data))
		if n := allocatedBy(budget, func() { st, err = decodeSnapshot(data) }); n > budget {
			t.Fatalf("decoding %d bytes allocated %d, budget %d", len(data), n, budget)
		}
		if err != nil {
			return
		}
		again := encodeSnapshot(st)
		st2, err := decodeSnapshot(again)
		if err != nil {
			t.Fatalf("re-encoded snapshot refused: %v", err)
		}
		if final := encodeSnapshot(st2); !bytes.Equal(final, again) {
			t.Fatalf("decode-encode is not a fixed point:\n%x\n%x", again, final)
		}
	})
}

// FuzzDecodeRecord: no input panics the record decoder or makes it
// allocate beyond decodeBudget, and whatever it accepts re-encodes to
// the same bytes — a frame is either exactly what an owner writes or
// it is refused. Seeds, in testdata/fuzz: goldenRecord's payload, and a
// record whose fired-key count is 2^60.
func FuzzDecodeRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		var rec recState
		var err error
		budget := decodeBudget(len(payload))
		if n := allocatedBy(budget, func() { rec, err = decodeRecord(payload) }); n > budget {
			t.Fatalf("decoding %d bytes allocated %d, budget %d", len(payload), n, budget)
		}
		if err != nil {
			return
		}
		frame, err := encodeRecord(rec)
		if err != nil || !bytes.Equal(frame[headerSize:], payload) {
			t.Fatalf("accepted record re-encodes differently (err %v):\n got %x\nwant %x", err, frame[headerSize:], payload)
		}
	})
}
