package durable

// Model-based crash test for the WAL, the snapshot and the standby path.
//
// One seed is one schedule: a deterministic list of engine inputs over
// the Miss Manners or the fraud pack (assert/retract batches, single
// recognize-act cycles, clock jumps that expire TTL'd facts), with
// faults placed between them — forced snapshots, kill -9 of the owner
// with the WAL cut at a byte, bit-flipped, or extended by a garbage or
// zero-filled tail, frame shipping with loss, a standby crash, and
// failover to the standby.
//
// The model is the list of engine states the uninterrupted run passes
// through, one per WAL record (the engine is deterministic, so record
// k of any run of the same inputs is the same batch). Invariants:
//
//   - every recovery lands exactly on the state after the record whose
//     sequence it reports;
//   - that record is never before the last one appended (fsync=always)
//     by an input that completed — the acknowledged prefix;
//   - the resumed run reaches the reference final state, and so does a
//     recovery of its directory and a promotion of its standby.
//
// A failing seed reproduces with -run 'TestCrashModel/seed=N'; shrunk
// failures go into crashRegressionSeeds.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ops5"
	"repro/internal/workload"
)

// crashSchedules is the number of seeded schedules every `go test` runs.
const crashSchedules = 200

// crashRegressionSeeds are seeds beyond 1..crashSchedules that once
// failed.
var crashRegressionSeeds = []int64{}

// crashInput is one engine input. Each emits at most one WAL record,
// except a cycle, whose firing batch may be followed by an expiry batch.
type crashInput struct {
	kind    byte        // 'a' apply a batch, 'c' one recognize-act cycle, 't' advance the clock
	inserts []*ops5.WME // 'a': elements to assert (cloned per execution)
	retract int         // 'a': time tag to retract if it is live
	clock   int64       // 't'
}

func (in crashInput) exec(t *testing.T, e *engine.Engine) (fired bool) {
	t.Helper()
	switch in.kind {
	case 'a':
		var batch []ops5.Change
		if w, ok := e.WM.Get(in.retract); ok {
			batch = append(batch, ops5.Change{Kind: ops5.Delete, WME: w})
		}
		for _, w := range in.inserts {
			batch = append(batch, ops5.Change{Kind: ops5.Insert, WME: w.Clone()})
		}
		e.ApplyChanges(batch)
	case 'c':
		ok, err := e.Step()
		if err != nil {
			t.Fatalf("Step: %v", err)
		}
		return ok
	case 't':
		e.AdvanceClock(in.clock)
	}
	return false
}

// crashFault is something that happens after an input ran.
type crashFault struct {
	// 's' forced snapshot; 'k' kill the owner (the input that just ran
	// was never acknowledged) and recover in place; 'h' ship the frames
	// the standby lacks; 'r' crash and reopen the standby; 'f' kill the
	// owner and promote the standby.
	kind byte
	// 'k', 'r': 0 no damage, 1 cut at a byte, 2 flip a bit, 3 garbage
	// tail, 4 zero-filled tail.
	how int
	// 'k', 'r': where in the damageable region. 'h': lose a frame in
	// transit when below 0.3.
	frac float64
}

// crashState renders everything recovery promises to reproduce.
func crashState(e *engine.Engine) string {
	tags, deadlines := e.Expiries()
	return stateString(e) + fmt.Sprintf("clock %d expired %d expiries %v %v\n", e.Clock, e.Expired, tags, deadlines)
}

// crashModel is one schedule: inputs, faults, the model, and the live
// owner and standby.
type crashModel struct {
	t       *testing.T
	rng     *rand.Rand
	newSys  func(noInitialWM bool) *core.System
	opts    Options
	standby bool

	inputs []crashInput
	faults map[int][]crashFault
	states []string // states[seq]: the engine after WAL record seq
	opOf   []int    // opOf[seq]: the input that emitted record seq

	root string
	dirs int
	sys  *core.System
	log  *Log

	sb      *Standby
	frames  map[int64][]byte // teed frames by sequence
	shipAck int64            // standby position after the last ship

	// What the schedule exercised, for -v.
	recoveries, lostRecords, resyncs int
}

func newCrashModel(t *testing.T, seed int64) *crashModel {
	r := &crashModel{
		t: t, rng: rand.New(rand.NewSource(seed)), root: t.TempDir(),
		standby: seed&2 != 0, faults: map[int][]crashFault{}, frames: map[int64][]byte{},
	}
	rng := r.rng
	r.opts = Options{Fsync: FsyncAlways, SnapshotEvery: []int{0, 3, 7}[rng.Intn(3)]}
	matcher := core.SerialRete
	if seed&4 != 0 {
		matcher = core.ParallelRete
	}
	program := workload.MissManners
	cycles := func(max int) {
		for n := rng.Intn(max + 1); n > 0; n-- {
			r.inputs = append(r.inputs, crashInput{kind: 'c'})
		}
	}
	if seed&1 == 0 {
		wmes := mannersWM(t)
		for len(wmes) > 0 {
			n := min(1+rng.Intn(8), len(wmes))
			r.inputs = append(r.inputs, crashInput{kind: 'a', inserts: wmes[:n]})
			wmes = wmes[n:]
			cycles(2)
		}
	} else {
		program = workload.FraudRules
		events := workload.FraudEvents(workload.FraudParams{Cards: 4, Events: 48, Window: 6, Seed: seed})
		tags := 0
		for len(events) > 0 {
			chunk := events[:min(1+rng.Intn(6), len(events))]
			events = events[len(chunk):]
			in := crashInput{kind: 'a'}
			if tags > 0 && rng.Intn(3) == 0 {
				in.retract = 1 + rng.Intn(tags) // may have expired already: then a no-op
			}
			for _, ev := range chunk {
				pairs := []any{ops5.TTLAttrName, ev.TTL}
				for k, v := range ev.Attrs {
					pairs = append(pairs, k, v)
				}
				in.inserts = append(in.inserts, ops5.NewWME(ev.Class, pairs...))
			}
			tags += 2 * len(chunk) // rough: alerts take tags too
			r.inputs = append(r.inputs, crashInput{kind: 't', clock: chunk[len(chunk)-1].TS}, in)
			cycles(3)
		}
		// Far enough that every txn and every alert (TTL 50) expires.
		r.inputs = append(r.inputs, crashInput{kind: 't', clock: 200})
	}
	r.newSys = func(noInitialWM bool) *core.System {
		sys, err := core.NewSystem(program, core.Options{Matcher: matcher, Workers: 2, NoInitialWM: noInitialWM})
		if err != nil {
			t.Fatalf("NewSystem: %v", err)
		}
		return sys
	}

	// The reference run: uninterrupted, no durable layer. It also
	// extends the inputs with the cycles that reach quiescence.
	ref := r.newSys(false).Engine
	r.states, r.opOf = []string{crashState(ref)}, []int{-1}
	cur := 0
	ref.Sink = func([]ops5.Change, []string) {
		r.states = append(r.states, crashState(ref))
		r.opOf = append(r.opOf, cur)
	}
	for ; cur < len(r.inputs); cur++ {
		r.inputs[cur].exec(t, ref)
	}
	for tail := (crashInput{kind: 'c'}); tail.exec(t, ref); cur++ {
		if r.inputs = append(r.inputs, tail); len(r.inputs) > 10_000 {
			t.Fatal("workload did not terminate")
		}
	}

	kinds := "sskkk"
	if r.standby {
		kinds = "skkhhhrff"
	}
	for i := range r.inputs {
		if rng.Float64() < 0.15 {
			r.faults[i] = append(r.faults[i], crashFault{
				kind: kinds[rng.Intn(len(kinds))], how: rng.Intn(5), frac: rng.Float64(),
			})
		}
	}
	return r
}

func (r *crashModel) newDir() string {
	r.dirs++
	return filepath.Join(r.root, fmt.Sprintf("d%d", r.dirs))
}

func (r *crashModel) seq() int64 {
	seq, _, _, _ := r.log.Stats()
	return seq
}

// attach makes l the live log of sys: the engine's sink appends to it,
// and with a standby its frames are teed and the standby is (re)synced.
func (r *crashModel) attach(l *Log, sys *core.System) {
	r.log, r.sys = l, sys
	sys.Engine.Sink = func(ch []ops5.Change, fk []string) {
		if err := l.Append(ch, fk); err != nil {
			r.t.Fatalf("Append: %v", err)
		}
	}
	if !r.standby {
		return
	}
	l.SetOnRecord(func(seq int64, framed []byte) { r.frames[seq] = framed })
	if r.sb == nil {
		sb, err := OpenStandby(r.newDir())
		if err != nil {
			r.t.Fatalf("OpenStandby: %v", err)
		}
		r.sb = sb
	}
	r.resync()
}

// resync ships a fresh snapshot. A standby that is ahead of a recovered
// owner refuses it and keeps its history: the owner re-executes into
// byte-identical records, which the standby then skips as duplicates.
func (r *crashModel) resync() {
	manifest, snap, seq, err := r.log.ExportState()
	if err != nil {
		r.t.Fatalf("ExportState: %v", err)
	}
	got, err := r.sb.InstallSnapshot(manifest, snap)
	if errors.Is(err, ErrStaleSnapshot) && got > seq {
		return
	}
	if err != nil || got != seq {
		r.t.Fatalf("InstallSnapshot: seq %d, %v; want %d", got, err, seq)
	}
	r.shipAck = seq
	r.resyncs++
}

// ship streams the frames the standby lacks, optionally losing one in
// transit, which must surface as a gap and heal with a resync.
func (r *crashModel) ship(drop bool) {
	from, to := r.sb.Seq()+1, r.seq()
	if drop = drop && to > from; drop {
		from++ // lose the first frame: everything after it is a gap
	}
	var stream bytes.Buffer
	for s := from; s <= to; s++ {
		stream.Write(r.frames[s])
	}
	_, _, err := r.sb.AppendRecords(&stream)
	switch {
	case drop && !errors.Is(err, ErrSequenceGap):
		r.t.Fatalf("shipping past a lost frame: %v, want ErrSequenceGap", err)
	case drop:
		r.resync()
	case err != nil:
		r.t.Fatalf("AppendRecords: %v", err)
	}
	if got := r.sb.Seq(); got < to {
		r.t.Fatalf("standby at %d after shipping through %d", got, to)
	}
	r.shipAck = r.sb.Seq()
}

// walEnds returns the end offset of every whole frame in a WAL file.
func walEnds(t *testing.T, path string) []int64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var ends []int64
	for rd := bytes.NewReader(data); ; {
		if _, err := DecodeFrame(rd); err != nil {
			return ends
		}
		ends = append(ends, int64(len(data)-rd.Len()))
	}
}

// damage applies a crash fault to a WAL file, leaving the first lo
// bytes alone.
func (r *crashModel) damage(path string, f crashFault, lo int64) {
	data, err := os.ReadFile(path)
	if err != nil {
		r.t.Fatal(err)
	}
	span := int64(len(data)) - lo
	switch f.how {
	case 1:
		data = data[:lo+int64(f.frac*float64(span+1))]
	case 2:
		if span > 0 {
			data[lo+int64(f.frac*float64(span))] ^= 1 << r.rng.Intn(8)
		}
	case 3:
		tail := make([]byte, 1+r.rng.Intn(12))
		r.rng.Read(tail)
		data = append(data, tail...)
	case 4:
		data = append(data, make([]byte, 8+r.rng.Intn(24))...)
	}
	if err := os.WriteFile(path, data, 0o666); err != nil {
		r.t.Fatal(err)
	}
}

// recoverAt recovers dir into a fresh engine, checks the recovery
// against the model — it landed on the state after the record it
// reports, no earlier than acked and no later than last — makes it the
// live session and returns the input to resume from.
func (r *crashModel) recoverAt(dir string, acked, last int64, clean bool) int {
	sys := r.newSys(true)
	l, stats, err := Recover(dir, sys.Engine, r.opts)
	if err != nil {
		r.t.Fatalf("Recover: %v", err)
	}
	seq, _, _, _ := l.Stats()
	if seq < acked || seq > last {
		r.t.Fatalf("recovered to record %d, outside [acknowledged %d, written %d]", seq, acked, last)
	}
	if clean && (seq != last || stats.Truncated) {
		r.t.Fatalf("undamaged WAL recovered to %d of %d (truncated=%v)", seq, last, stats.Truncated)
	}
	if got, want := crashState(sys.Engine), r.states[seq]; got != want {
		r.t.Fatalf("recovery at record %d is not the state the run passed through:\n--- got ---\n%s--- want ---\n%s", seq, got, want)
	}
	r.recoveries++
	r.lostRecords += int(last - seq)
	r.attach(l, sys)
	return r.opOf[seq] + 1
}

// kill crashes the owner with the input that just ran unacknowledged
// and recovers in place.
func (r *crashModel) kill(f crashFault, acked int64) int {
	last, snapSeq, _, _ := r.log.Stats()
	r.log.Close() // releases the descriptor; the bytes on disk are the crash image
	dir := r.log.Dir()
	path := filepath.Join(dir, walFile)
	ends := walEnds(r.t, path)
	if int64(len(ends)) != last-snapSeq {
		r.t.Fatalf("WAL holds %d records, want %d (seq %d, snapshot %d)", len(ends), last-snapSeq, last, snapSeq)
	}
	var lo int64
	if acked > snapSeq {
		lo = ends[acked-snapSeq-1]
	}
	r.damage(path, f, lo)
	return r.recoverAt(dir, acked, last, f.how == 0)
}

// reopenStandby crashes the standby mid-append and reopens it: it may
// lose any suffix of its shipped history, never its snapshot, and
// shipping heals it.
func (r *crashModel) reopenStandby(f crashFault) {
	before, snapSeq, _ := r.sb.Stats()
	dir := r.sb.Dir()
	r.sb.Close()
	r.damage(filepath.Join(dir, walFile), f, 0)
	sb, err := OpenStandby(dir)
	if err != nil {
		r.t.Fatalf("reopen standby: %v", err)
	}
	r.sb = sb
	if got := sb.Seq(); got < snapSeq || got > before {
		r.t.Fatalf("reopened standby at %d, outside [snapshot %d, shipped %d]", got, snapSeq, before)
	}
	r.ship(false)
}

// failover kills the owner and promotes the standby: promotion is
// Recover on the standby's directory.
func (r *crashModel) failover() int {
	r.log.Close()
	pos := r.sb.Seq()
	dir := r.sb.Dir()
	r.sb.Close()
	r.sb = nil
	if pos < r.shipAck {
		r.t.Fatalf("standby at %d, behind its acknowledged position %d", pos, r.shipAck)
	}
	return r.recoverAt(dir, pos, pos, true)
}

func (r *crashModel) run() {
	t := r.t
	sys := r.newSys(false)
	l, err := Create(r.newDir(), []byte(`{"program":"crash-model"}`), sys.Engine, r.opts)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	r.attach(l, sys)
	for cur := 0; cur < len(r.inputs); {
		acked := r.seq()
		r.inputs[cur].exec(t, r.sys.Engine)
		fs := r.faults[cur]
		delete(r.faults, cur) // a fault strikes once, however often its input re-runs
		cur++
	faults:
		for _, f := range fs {
			switch f.kind {
			case 's':
				if _, err := r.log.Snapshot(); err != nil {
					t.Fatalf("Snapshot: %v", err)
				}
			case 'h':
				r.ship(f.frac < 0.3)
			case 'r':
				r.reopenStandby(f)
			case 'k':
				cur = r.kill(f, acked)
				break faults
			case 'f':
				cur = r.failover()
				break faults
			}
		}
	}

	final := r.states[len(r.states)-1]
	last := int64(len(r.states) - 1)
	if got := crashState(r.sys.Engine); got != final || r.seq() != last {
		t.Fatalf("resumed run ended at record %d of %d:\n--- got ---\n%s--- want ---\n%s", r.seq(), last, got, final)
	}
	// The directory it leaves, or the standby it fed, recovers to the
	// same final state.
	if r.standby {
		r.ship(false)
		r.failover()
		r.sb.Close()
	} else {
		r.log.Close()
		r.recoverAt(r.log.Dir(), last, last, true)
	}
	if r.seq() != last {
		t.Fatalf("final recovery at record %d of %d", r.seq(), last)
	}
	r.log.Close()
	t.Logf("%d inputs, %d records; %d recoveries lost %d unacknowledged records; %d snapshot resyncs",
		len(r.inputs), last, r.recoveries, r.lostRecords, r.resyncs)
}

func TestCrashModel(t *testing.T) {
	seeds := append([]int64(nil), crashRegressionSeeds...)
	for s := int64(1); s <= crashSchedules; s++ {
		seeds = append(seeds, s)
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			newCrashModel(t, seed).run()
		})
	}
}
