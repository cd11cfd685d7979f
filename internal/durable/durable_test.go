package durable

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/conflict"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/matchtest"
	"repro/internal/ops5"
	"repro/internal/workload"
)

// newManners builds a Miss Manners system. Recovery targets are built
// with noInitialWM (the snapshot holds the post-load state).
func newManners(t testing.TB, matcher core.MatcherKind, noInitialWM bool) *core.System {
	t.Helper()
	sys, err := core.NewSystem(workload.MissManners, core.Options{
		Matcher: matcher, Workers: 2, NoInitialWM: noInitialWM,
	})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	return sys
}

// mannersEngine builds a Miss Manners engine under the named matcher:
// a served one through newManners, or a §3.2 baseline ("treat") through
// matchtest, whose recovery is the engine's as well.
func mannersEngine(t testing.TB, matcher string, noInitialWM bool) *engine.Engine {
	t.Helper()
	if kind, err := core.ParseMatcherKind(matcher); err == nil {
		return newManners(t, kind, noInitialWM).Engine
	}
	prog, err := ops5.Parse(workload.MissManners)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if noInitialWM {
		prog.InitialWM = nil
	}
	e, err := matchtest.NewBaseline(matcher, prog, conflict.LEX)
	if err != nil {
		t.Fatalf("NewBaseline: %v", err)
	}
	return e
}

// mannersWM generates the deterministic guest list every run shares.
func mannersWM(t testing.TB) []*ops5.WME {
	t.Helper()
	p := workload.DefaultMannersParams()
	p.Guests = 6
	wmes, err := workload.MannersWM(p)
	if err != nil {
		t.Fatalf("MannersWM: %v", err)
	}
	return wmes
}

// stateString renders everything recovery promises to reproduce —
// working memory with time tags, the tag counter, the conflict set in
// LEX order, refraction marks, and the engine counters — as one string,
// so differential tests can assert byte-identity.
func stateString(e *engine.Engine) string {
	var b strings.Builder
	wmes := e.WM.Elements()
	sort.Slice(wmes, func(i, j int) bool { return wmes[i].TimeTag < wmes[j].TimeTag })
	for _, w := range wmes {
		b.WriteString(w.String())
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "next-tag %d\n", e.WM.NextTag())
	for _, in := range e.CS.Instantiations() {
		b.WriteString(in.Key())
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "fired %v\n", e.CS.FiredKeys())
	fmt.Fprintf(&b, "counters %d %d %d %v\n", e.Cycles, e.Fired, e.TotalChanges, e.Halted)
	return b.String()
}

// referenceRun executes the workload uninterrupted, capturing the
// engine state after every committed batch. states[i] is the state a
// recovery must reproduce after replaying WAL record i+1; final is the
// state at halt.
func referenceRun(t *testing.T, matcher string, wmes []*ops5.WME) (states []string, final string) {
	t.Helper()
	e := mannersEngine(t, matcher, false)
	e.Sink = func([]ops5.Change, []string) {
		states = append(states, stateString(e))
	}
	e.Load(wmes)
	stepToEnd(t, e)
	return states, stateString(e)
}

// stepToEnd runs recognize-act cycles until quiescence or halt.
func stepToEnd(t *testing.T, e *engine.Engine) {
	t.Helper()
	for i := 0; ; i++ {
		if i > 10_000 {
			t.Fatal("workload did not terminate")
		}
		ok, err := e.Step()
		if err != nil {
			t.Fatalf("Step: %v", err)
		}
		if !ok {
			return
		}
	}
}

// crashRun drives a durable session until exactly stopAfter WAL records
// are committed, then abandons the log without Close — the on-disk
// state is what a kill -9 leaves behind (fsync=always: every
// acknowledged record is synced).
func crashRun(t *testing.T, dir string, matcher string, wmes []*ops5.WME, stopAfter, snapEvery int) {
	t.Helper()
	e := mannersEngine(t, matcher, false)
	l, err := Create(dir, []byte(`{"program":"manners"}`), e, Options{
		Fsync: FsyncAlways, SnapshotEvery: snapEvery,
	})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	records := 0
	e.Sink = func(ch []ops5.Change, fk []string) {
		if err := l.Append(ch, fk); err != nil {
			t.Errorf("Append: %v", err)
		}
		records++
	}
	e.Load(wmes)
	for records < stopAfter {
		ok, err := e.Step()
		if err != nil {
			t.Fatalf("Step: %v", err)
		}
		if !ok {
			break
		}
	}
	if records != stopAfter {
		t.Fatalf("run committed %d records, wanted to crash at %d", records, stopAfter)
	}
}

// TestRecoverDifferential is the core crash-consistency check: run N
// cycles, kill mid-stream at several points, recover, and require the
// working memory and conflict set to be byte-identical to an
// uninterrupted run — then resume the recovered session to completion
// and require the final states to match too.
func TestRecoverDifferential(t *testing.T) {
	wmes := mannersWM(t)
	for _, matcher := range []string{"rete", "treat", "parallel-rete"} {
		states, final := referenceRun(t, matcher, wmes)
		if len(states) < 8 {
			t.Fatalf("reference run too short: %d records", len(states))
		}
		crashPoints := []int{1, 3, len(states) / 2, len(states)}
		for _, snapEvery := range []int{0, 1, 4} {
			for _, crashAt := range crashPoints {
				name := fmt.Sprintf("%s/snap=%d/crash=%d", matcher, snapEvery, crashAt)
				t.Run(name, func(t *testing.T) {
					dir := t.TempDir()
					crashRun(t, dir, matcher, wmes, crashAt, snapEvery)

					rsys := mannersEngine(t, matcher, true)
					rlog, stats, err := Recover(dir, rsys, Options{Fsync: FsyncAlways})
					if err != nil {
						t.Fatalf("Recover: %v", err)
					}
					defer rlog.Close()
					if stats.Truncated {
						t.Fatalf("clean WAL reported truncation at %d", stats.TruncatedAt)
					}
					if got, want := stateString(rsys), states[crashAt-1]; got != want {
						t.Fatalf("recovered state diverged from reference:\n--- got ---\n%s--- want ---\n%s", got, want)
					}
					seq, snapSeq, _, _ := rlog.Stats()
					if seq != int64(crashAt) {
						t.Fatalf("recovered seq %d, want %d", seq, crashAt)
					}
					if stats.Replayed != seq-snapSeq {
						t.Fatalf("replayed %d records, want %d (seq %d, snapshot %d)",
							stats.Replayed, seq-snapSeq, seq, snapSeq)
					}

					// The recovered session must be a full citizen: keep
					// logging, run to completion, and still match the
					// uninterrupted run — and still be recoverable.
					rsys.Sink = func(ch []ops5.Change, fk []string) {
						if err := rlog.Append(ch, fk); err != nil {
							t.Errorf("Append after recovery: %v", err)
						}
					}
					stepToEnd(t, rsys)
					if got := stateString(rsys); got != final {
						t.Fatalf("resumed run diverged at halt:\n--- got ---\n%s--- want ---\n%s", got, final)
					}
					r2 := mannersEngine(t, matcher, true)
					r2log, _, err := Recover(dir, r2, Options{})
					if err != nil {
						t.Fatalf("second Recover: %v", err)
					}
					defer r2log.Close()
					if got := stateString(r2); got != final {
						t.Fatalf("second recovery diverged at halt:\n--- got ---\n%s--- want ---\n%s", got, final)
					}
				})
			}
		}
	}
}

// TestRecoverTruncatedWAL injects the faults a crash mid-append leaves
// behind — a torn tail, a corrupted record, trailing garbage — and
// checks recovery truncates to the last intact record instead of
// failing, landing exactly on a state the uninterrupted run passed
// through.
func TestRecoverTruncatedWAL(t *testing.T) {
	wmes := mannersWM(t)
	states, final := referenceRun(t, "rete", wmes)
	const crashAt = 6
	walPath := func(dir string) string { return filepath.Join(dir, walFile) }

	cases := []struct {
		name      string
		mutate    func(t *testing.T, path string)
		wantState int // index into states after recovery
	}{
		{"tail cut mid-record", func(t *testing.T, path string) {
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, fi.Size()-5); err != nil {
				t.Fatal(err)
			}
		}, crashAt - 2}, // last record torn: its batch was never acknowledged
		{"last record corrupted", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)-3] ^= 0x40 // flip a payload bit: CRC mismatch
			if err := os.WriteFile(path, data, 0o666); err != nil {
				t.Fatal(err)
			}
		}, crashAt - 2},
		{"garbage tail", func(t *testing.T, path string) {
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
				t.Fatal(err)
			}
		}, crashAt - 1}, // all committed records intact
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			crashRun(t, dir, "rete", wmes, crashAt, 0)
			tc.mutate(t, walPath(dir))

			rsys := newManners(t, core.SerialRete, true)
			rlog, stats, err := Recover(dir, rsys.Engine, Options{})
			if err != nil {
				t.Fatalf("Recover: %v", err)
			}
			if !stats.Truncated {
				t.Fatal("recovery did not report the torn tail")
			}
			if got, want := stateString(rsys.Engine), states[tc.wantState]; got != want {
				t.Fatalf("recovered state diverged:\n--- got ---\n%s--- want ---\n%s", got, want)
			}
			if fi, err := os.Stat(walPath(dir)); err != nil || fi.Size() != stats.TruncatedAt {
				t.Fatalf("WAL size %v (err %v), want truncated to %d", fi.Size(), err, stats.TruncatedAt)
			}
			rlog.Close()

			// The truncated WAL is now clean: a second recovery sees no
			// fault, and the session resumes to the reference final state
			// (the lost cycle re-executes deterministically).
			r2 := newManners(t, core.SerialRete, true)
			r2log, stats2, err := Recover(dir, r2.Engine, Options{Fsync: FsyncAlways})
			if err != nil {
				t.Fatalf("second Recover: %v", err)
			}
			defer r2log.Close()
			if stats2.Truncated {
				t.Fatal("second recovery still sees a torn tail")
			}
			r2.Engine.Sink = func(ch []ops5.Change, fk []string) {
				if err := r2log.Append(ch, fk); err != nil {
					t.Errorf("Append: %v", err)
				}
			}
			stepToEnd(t, r2.Engine)
			if got := stateString(r2.Engine); got != final {
				t.Fatalf("resumed run diverged at halt:\n--- got ---\n%s--- want ---\n%s", got, final)
			}
		})
	}
}

// TestRecoverRefusesWholeFrames is the other half of the torn-tail
// rule: a frame whose length and CRC hold was not torn by a crash, so
// when it cannot be applied — a record of the previous, JSON format; a
// sequence gap; a batch that does not replay — acknowledged history may
// sit in or behind it, and Recover must fail with the offset and the
// reason and leave wal.log byte-identical instead of cutting it away.
func TestRecoverRefusesWholeFrames(t *testing.T) {
	wmes := mannersWM(t)
	const crashAt = 6
	frame := func(payload []byte) []byte {
		f, err := EncodeFrame(payload)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	// A well-formed next record whose batch cannot replay.
	absent, err := encodeRecord(recState{
		Seq:     crashAt + 1,
		Changes: []ops5.Change{{Kind: ops5.Delete, WME: &ops5.WME{TimeTag: 9999}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(wal []byte, ends []int64) ([]byte, int64) // new WAL, offset of the refused frame
		reason string
		gap    bool
	}{
		{"whole WAL in the previous format", func(wal []byte, ends []int64) ([]byte, int64) {
			return frame([]byte(`{"seq":1,"cycles":0,"fired":0,"total_changes":3,"changes":[{"op":"d","tag":1}]}`)), 0
		}, "not a version-1 WAL record", false},
		{"previous-format record after current ones", func(wal []byte, ends []int64) ([]byte, int64) {
			return append(wal, frame([]byte(`{"seq":7,"cycles":5,"fired":5,"total_changes":20}`))...), ends[crashAt-1]
		}, "not a version-1 WAL record", false},
		{"sequence gap", func(wal []byte, ends []int64) ([]byte, int64) {
			return append(bytes.Clone(wal[:ends[1]]), wal[ends[2]:]...), ends[1] // record 3 is missing
		}, "record 4 after 2", true},
		{"batch that does not replay", func(wal []byte, ends []int64) ([]byte, int64) {
			return append(wal, absent...), ends[crashAt-1]
		}, "absent tag 9999", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			crashRun(t, dir, "rete", wmes, crashAt, 0)
			path := filepath.Join(dir, walFile)
			wal, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			mutated, offset := tc.mutate(wal, walEnds(t, path))
			if err := os.WriteFile(path, mutated, 0o666); err != nil {
				t.Fatal(err)
			}

			rsys := newManners(t, core.SerialRete, true)
			_, _, err = Recover(dir, rsys.Engine, Options{})
			var rerr *RecordError
			if !errors.As(err, &rerr) {
				t.Fatalf("Recover = %v, want a *RecordError", err)
			}
			if rerr.Offset != offset || !strings.Contains(err.Error(), tc.reason) || errors.Is(err, ErrSequenceGap) != tc.gap {
				t.Fatalf("Recover = %v (offset %d); want offset %d, reason %q, gap %v", err, rerr.Offset, offset, tc.reason, tc.gap)
			}
			if after, err := os.ReadFile(path); err != nil || sha256.Sum256(after) != sha256.Sum256(mutated) {
				t.Fatalf("refusing the WAL changed it (read err %v)", err)
			}
		})
	}
}

// TestRecoverSkipsSnapshotCoveredRecords simulates a crash in the
// window between the snapshot rename and the WAL truncate: the WAL
// still holds records the snapshot already covers. Replay must skip
// them by sequence number, not apply them twice.
func TestRecoverSkipsSnapshotCoveredRecords(t *testing.T) {
	wmes := mannersWM(t)
	states, final := referenceRun(t, "rete", wmes)
	const crashAt = 5

	dir := t.TempDir()
	sys := newManners(t, core.SerialRete, false)
	l, err := Create(dir, []byte(`{}`), sys.Engine, Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	records := 0
	sys.Engine.Sink = func(ch []ops5.Change, fk []string) {
		if err := l.Append(ch, fk); err != nil {
			t.Errorf("Append: %v", err)
		}
		records++
	}
	sys.Engine.Load(wmes)
	for records < crashAt {
		if ok, err := sys.Engine.Step(); err != nil || !ok {
			t.Fatalf("Step: ok=%v err=%v", ok, err)
		}
	}
	walPath := filepath.Join(dir, walFile)
	preSnapshot, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	// Undo the truncate the snapshot performed, as if the crash hit
	// first; then kill the session.
	if err := os.WriteFile(walPath, preSnapshot, 0o666); err != nil {
		t.Fatal(err)
	}

	rsys := newManners(t, core.SerialRete, true)
	rlog, stats, err := Recover(dir, rsys.Engine, Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer rlog.Close()
	if stats.SnapshotSeq != crashAt || stats.Replayed != 0 {
		t.Fatalf("snapshot seq %d replayed %d, want %d and 0", stats.SnapshotSeq, stats.Replayed, crashAt)
	}
	if got, want := stateString(rsys.Engine), states[crashAt-1]; got != want {
		t.Fatalf("recovered state diverged:\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	// Resume: new records land after the dead ones in the same file; a
	// later recovery must skip the dead prefix and replay the live tail.
	rsys.Engine.Sink = func(ch []ops5.Change, fk []string) {
		if err := rlog.Append(ch, fk); err != nil {
			t.Errorf("Append: %v", err)
		}
	}
	stepToEnd(t, rsys.Engine)
	r2 := newManners(t, core.SerialRete, true)
	r2log, stats2, err := Recover(dir, r2.Engine, Options{})
	if err != nil {
		t.Fatalf("second Recover: %v", err)
	}
	defer r2log.Close()
	if stats2.Replayed == 0 {
		t.Fatal("second recovery replayed nothing; live tail lost")
	}
	if got := stateString(r2.Engine); got != final {
		t.Fatalf("second recovery diverged at halt:\n--- got ---\n%s--- want ---\n%s", got, final)
	}
}

// TestRunContextCancelSnapshotConsistent cancels RunContext mid-run and
// checks the session lands on a batch boundary: the context is only
// checked between cycles, so a snapshot taken right after cancellation
// recovers byte-identically, and the resumed run still reaches the
// reference final state. (Exercises the engine's cancellation contract
// end to end through the durability layer.)
func TestRunContextCancelSnapshotConsistent(t *testing.T) {
	wmes := mannersWM(t)
	_, final := referenceRun(t, "rete", wmes)

	dir := t.TempDir()
	sys := newManners(t, core.SerialRete, false)
	l, err := Create(dir, []byte(`{}`), sys.Engine, Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	records := 0
	sys.Engine.Sink = func(ch []ops5.Change, fk []string) {
		if err := l.Append(ch, fk); err != nil {
			t.Errorf("Append: %v", err)
		}
		if records++; records == 5 {
			cancel() // mid-run: cycles are still pending
		}
	}
	sys.Engine.Load(wmes)
	if _, err := sys.Engine.RunContext(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext: %v, want context.Canceled", err)
	}
	if sys.Engine.Halted {
		t.Fatal("cancellation must not halt the session")
	}
	interrupted := stateString(sys.Engine)
	if _, err := l.Snapshot(); err != nil {
		t.Fatalf("Snapshot after cancel: %v", err)
	}

	rsys := newManners(t, core.SerialRete, true)
	rlog, _, err := Recover(dir, rsys.Engine, Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer rlog.Close()
	if got := stateString(rsys.Engine); got != interrupted {
		t.Fatalf("recovered state differs from the cancelled session:\n--- got ---\n%s--- want ---\n%s", got, interrupted)
	}
	rsys.Engine.Sink = func(ch []ops5.Change, fk []string) {
		if err := rlog.Append(ch, fk); err != nil {
			t.Errorf("Append: %v", err)
		}
	}
	if _, err := rsys.Engine.RunContext(context.Background(), 0); err != nil {
		t.Fatalf("resumed RunContext: %v", err)
	}
	if got := stateString(rsys.Engine); got != final {
		t.Fatalf("resumed run diverged at halt:\n--- got ---\n%s--- want ---\n%s", got, final)
	}
}

// TestAutoSnapshotBoundsWAL checks SnapshotEvery checkpoints inline and
// resets the WAL tail, so replay work at recovery stays bounded.
func TestAutoSnapshotBoundsWAL(t *testing.T) {
	wmes := mannersWM(t)
	states, _ := referenceRun(t, "rete", wmes)
	const crashAt, snapEvery = 8, 3

	dir := t.TempDir()
	crashRun(t, dir, "rete", wmes, crashAt, snapEvery)
	rsys := newManners(t, core.SerialRete, true)
	rlog, stats, err := Recover(dir, rsys.Engine, Options{})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer rlog.Close()
	if stats.SnapshotSeq != 6 || stats.Replayed != 2 {
		t.Fatalf("snapshot seq %d replayed %d, want 6 and 2 (SnapshotEvery=%d)",
			stats.SnapshotSeq, stats.Replayed, snapEvery)
	}
	if got, want := stateString(rsys.Engine), states[crashAt-1]; got != want {
		t.Fatalf("recovered state diverged:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestFsyncPolicies runs a clean close/recover round trip under every
// sync policy (interval and never rely on Close syncing the tail).
func TestFsyncPolicies(t *testing.T) {
	wmes := mannersWM(t)
	states, _ := referenceRun(t, "rete", wmes)
	for _, policy := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncNever} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			sys := newManners(t, core.SerialRete, false)
			l, err := Create(dir, []byte(`{}`), sys.Engine, Options{
				Fsync: policy, FsyncInterval: 5 * time.Millisecond,
			})
			if err != nil {
				t.Fatalf("Create: %v", err)
			}
			records := 0
			sys.Engine.Sink = func(ch []ops5.Change, fk []string) {
				if err := l.Append(ch, fk); err != nil {
					t.Errorf("Append: %v", err)
				}
				records++
			}
			sys.Engine.Load(wmes)
			for records < 4 {
				if ok, err := sys.Engine.Step(); err != nil || !ok {
					t.Fatalf("Step: ok=%v err=%v", ok, err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			rsys := newManners(t, core.SerialRete, true)
			rlog, _, err := Recover(dir, rsys.Engine, Options{Fsync: policy})
			if err != nil {
				t.Fatalf("Recover: %v", err)
			}
			defer rlog.Close()
			if got, want := stateString(rsys.Engine), states[3]; got != want {
				t.Fatalf("recovered state diverged:\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	for _, policy := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncNever} {
		got, err := ParseFsyncPolicy(policy.String())
		if err != nil || got != policy {
			t.Errorf("ParseFsyncPolicy(%q) = %v, %v", policy.String(), got, err)
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Error("ParseFsyncPolicy accepted an unknown policy")
	}
}

func TestCreateGuards(t *testing.T) {
	dir := t.TempDir()
	sys := newManners(t, core.SerialRete, false)
	if _, err := Create(dir, []byte(`{broken`), sys.Engine, Options{}); err == nil {
		t.Fatal("Create accepted an invalid manifest")
	}
	l, err := Create(dir, []byte(`{"id":"a"}`), sys.Engine, Options{})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer l.Close()
	if _, err := Create(dir, []byte(`{"id":"b"}`), sys.Engine, Options{}); err == nil {
		t.Fatal("Create reused a directory that already holds a session")
	}
}

func TestSessionDirsAndManifest(t *testing.T) {
	dataDir := t.TempDir()
	if dirs, err := SessionDirs(filepath.Join(dataDir, "missing")); err != nil || dirs != nil {
		t.Fatalf("missing data dir: dirs=%v err=%v", dirs, err)
	}
	manifest := []byte(`{"id":"s-1"}`)
	sys := newManners(t, core.SerialRete, false)
	l, err := Create(filepath.Join(dataDir, "aa"), manifest, sys.Engine, Options{})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer l.Close()
	// A stray non-session directory must be ignored.
	if err := os.MkdirAll(filepath.Join(dataDir, "zz-stray"), 0o777); err != nil {
		t.Fatal(err)
	}
	dirs, err := SessionDirs(dataDir)
	if err != nil {
		t.Fatalf("SessionDirs: %v", err)
	}
	if len(dirs) != 1 || dirs[0] != filepath.Join(dataDir, "aa") {
		t.Fatalf("SessionDirs = %v", dirs)
	}
	got, err := ReadManifest(dirs[0])
	if err != nil || string(got) != string(manifest) {
		t.Fatalf("ReadManifest = %q, %v", got, err)
	}
	// Remove deletes the directory so the session cannot resurrect.
	if err := l.Remove(); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if dirs, _ := SessionDirs(dataDir); len(dirs) != 0 {
		t.Fatalf("session survived Remove: %v", dirs)
	}
}

// TestRecoverSnapshotEmptyWAL covers the state a crash leaves right
// after a snapshot truncated the WAL (and the state WAL shipping
// installs on a freshly caught-up standby): a snapshot plus a
// zero-length WAL. Recovery must restore the snapshot and replay
// nothing.
func TestRecoverSnapshotEmptyWAL(t *testing.T) {
	wmes := mannersWM(t)
	dir := t.TempDir()
	sys := newManners(t, core.SerialRete, false)
	l, err := Create(dir, []byte(`{"program":"manners"}`), sys.Engine, Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	sys.Engine.Sink = func(ch []ops5.Change, fk []string) {
		if err := l.Append(ch, fk); err != nil {
			t.Errorf("Append: %v", err)
		}
	}
	sys.Engine.Load(wmes)
	stepToEnd(t, sys.Engine)
	want := stateString(sys.Engine)
	if _, err := l.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	// Abandon without Close: the snapshot just truncated the WAL, so
	// the on-disk state is snapshot + zero-length wal.log.
	if fi, err := os.Stat(filepath.Join(dir, walFile)); err != nil || fi.Size() != 0 {
		t.Fatalf("wal.log size = %v, err = %v; want zero-length file", fi, err)
	}

	rsys := newManners(t, core.SerialRete, true)
	rlog, stats, err := Recover(dir, rsys.Engine, Options{})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer rlog.Close()
	if stats.Replayed != 0 || stats.Truncated {
		t.Fatalf("stats = %+v, want 0 replayed, no truncation", stats)
	}
	if got := stateString(rsys.Engine); got != want {
		t.Fatalf("recovered state diverged:\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	// A missing WAL (deleted between snapshot and crash is impossible,
	// but an operator copying snapshot-only state is not) behaves the
	// same way.
	if err := os.Remove(filepath.Join(dir, walFile)); err != nil {
		t.Fatal(err)
	}
	r2 := newManners(t, core.SerialRete, true)
	r2log, _, err := Recover(dir, r2.Engine, Options{})
	if err != nil {
		t.Fatalf("Recover without wal.log: %v", err)
	}
	defer r2log.Close()
	if got := stateString(r2.Engine); got != want {
		t.Fatalf("recovered state diverged with missing WAL:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
