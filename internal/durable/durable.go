// Package durable makes hosted rule-engine sessions survive crashes and
// restarts. The paper's state-saving argument (§3.1) — under 0.5% of
// working memory changes per recognize-act cycle — cuts both ways: the
// same low churn that makes incremental match cheap makes a session's
// evolution cheap to checkpoint incrementally. Each session gets a
// write-ahead log of committed change batches (length-prefixed,
// CRC32-framed records appended through the engine's ChangeLogSink
// hook) plus periodic snapshots of the full engine state (working
// memory with time tags, the tag counter, engine counters and the
// conflict set's refraction marks), written atomically via
// temp-file-then-rename. Both files are one binary format written and
// read by one codec (codec.go). Recovery loads the latest snapshot,
// replays the WAL tail through the engine's apply path, and truncates a
// torn tail instead of failing — exactly the state every acknowledged
// request observed is reconstructed, byte for byte.
package durable

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/ops5"
)

// FsyncPolicy says when WAL appends reach stable storage.
type FsyncPolicy uint8

// The fsync policies, trading durability for append latency.
const (
	// FsyncAlways syncs after every record: an acknowledged batch is
	// never lost, at the price of one fsync per apply.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval syncs on a background ticker: a crash loses at most
	// the last interval's records, appends stay memory-speed.
	FsyncInterval
	// FsyncNever leaves syncing to the OS page cache: fastest, loses
	// whatever the kernel had not written back.
	FsyncNever
)

// String names the policy (the -fsync flag spelling).
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncInterval:
		return "interval"
	case FsyncNever:
		return "never"
	default:
		return "always"
	}
}

// ParseFsyncPolicy converts a -fsync flag value to a policy.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch strings.ToLower(s) {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	default:
		return FsyncAlways, fmt.Errorf("durable: unknown fsync policy %q (always|interval|never)", s)
	}
}

// Options tunes one session log.
type Options struct {
	// Fsync selects the WAL sync policy (default FsyncAlways).
	Fsync FsyncPolicy
	// FsyncInterval is the background sync period under FsyncInterval
	// (default 100ms).
	FsyncInterval time.Duration
	// SnapshotEvery takes an automatic snapshot after this many WAL
	// records, bounding replay work at recovery (0 = only explicit
	// snapshots).
	SnapshotEvery int
	// ObserveAppend, when set, receives the framed size of every
	// appended record (feeds psmd_wal_bytes_total).
	ObserveAppend func(bytes int)
	// ObserveSnapshot, when set, receives the duration and size of
	// every snapshot written (feeds psmd_snapshot_seconds).
	ObserveSnapshot func(d time.Duration, bytes int)
}

// The per-session file layout.
const (
	manifestFile = "manifest.json"
	snapshotFile = "snapshot.json"
	walFile      = "wal.log"
)

// SnapshotInfo reports one written snapshot.
type SnapshotInfo struct {
	// Seq is the WAL sequence the snapshot captures; records at or
	// below it are dead.
	Seq int64 `json:"seq"`
	// Bytes is the serialized snapshot size.
	Bytes int `json:"bytes"`
	// WMEs is the number of working-memory elements captured.
	WMEs int `json:"wmes"`
}

// Log is one session's durable state: an open WAL plus the latest
// snapshot, bound to the engine whose evolution it records. Append and
// Snapshot run on the session's owning goroutine; only the interval
// fsync ticker touches the log from elsewhere, under mu.
type Log struct {
	dir  string
	eng  *engine.Engine
	opts Options

	mu        sync.Mutex
	wal       *os.File
	seq       int64 // last appended (or replayed) record
	snapSeq   int64 // sequence captured by the latest snapshot
	records   int64 // records appended since that snapshot
	walBytes  int64 // live WAL bytes (since that snapshot)
	dirty     bool  // unsynced appends pending (interval policy)
	recovered bool  // this log was opened by Recover
	replayed  int64 // records replayed at recovery
	err       error // first append/sync failure; the log wedges
	closed    bool
	stop      chan struct{} // interval ticker shutdown
	done      chan struct{}

	// onRecord, when set, observes every appended record's framed bytes
	// in append order — the WAL-shipping tee (internal/cluster). Invoked
	// under mu, so it must be quick and non-blocking.
	onRecord func(seq int64, framed []byte)
}

// Create initialises durable state for a brand-new session: the
// manifest (opaque caller JSON, typically the create spec) is written
// first, then an initial snapshot of the engine's post-load state, then
// an empty WAL. It fails if the directory already holds a manifest —
// on-disk state is owned by exactly one session lifetime.
func Create(dir string, manifest []byte, eng *engine.Engine, opts Options) (*Log, error) {
	if !json.Valid(manifest) {
		return nil, fmt.Errorf("durable: manifest is not valid JSON")
	}
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(dir, manifestFile)); err == nil {
		return nil, fmt.Errorf("durable: %s already holds a session manifest", dir)
	}
	if err := writeFileAtomic(filepath.Join(dir, manifestFile), manifest); err != nil {
		return nil, err
	}
	l, err := newLog(dir, eng, opts)
	if err != nil {
		return nil, err
	}
	if _, err := l.Snapshot(); err != nil {
		l.Close()
		return nil, err
	}
	return l, nil
}

// ReadManifest returns the manifest bytes written by Create.
func ReadManifest(dir string) ([]byte, error) {
	return os.ReadFile(filepath.Join(dir, manifestFile))
}

// SessionDirs lists the session directories under a data dir (entries
// containing a manifest), sorted for deterministic recovery order.
func SessionDirs(dataDir string) ([]string, error) {
	entries, err := os.ReadDir(dataDir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var dirs []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(dataDir, e.Name())
		if _, err := os.Stat(filepath.Join(dir, manifestFile)); err == nil {
			dirs = append(dirs, dir)
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// newLog opens the WAL and starts the interval ticker if configured.
func newLog(dir string, eng *engine.Engine, opts Options) (*Log, error) {
	if opts.FsyncInterval <= 0 {
		opts.FsyncInterval = 100 * time.Millisecond
	}
	wal, err := os.OpenFile(filepath.Join(dir, walFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o666)
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir, eng: eng, opts: opts, wal: wal}
	if opts.Fsync == FsyncInterval {
		l.stop = make(chan struct{})
		l.done = make(chan struct{})
		go l.fsyncLoop()
	}
	return l, nil
}

// fsyncLoop syncs pending appends every FsyncInterval.
func (l *Log) fsyncLoop() {
	defer close(l.done)
	t := time.NewTicker(l.opts.FsyncInterval)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			l.mu.Lock()
			if l.dirty && l.err == nil {
				if err := l.wal.Sync(); err != nil {
					l.err = err
				}
				l.dirty = false
			}
			l.mu.Unlock()
		}
	}
}

// Dir returns the session's durable directory.
func (l *Log) Dir() string { return l.dir }

// Err returns the first write or sync failure. A failed log stops
// appending (the session keeps serving; durability is degraded, not
// the session).
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Recovered reports whether this log was opened by Recover, and how
// many WAL records the recovery replayed.
func (l *Log) Recovered() (bool, int64) { return l.recovered, l.replayed }

// Stats snapshots the log's counters: last appended sequence, the
// sequence held by the latest snapshot, and records/bytes in the live
// WAL tail.
func (l *Log) Stats() (seq, snapSeq, records, walBytes int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq, l.snapSeq, l.records, l.walBytes
}

// Append logs one committed change batch with the engine's counters
// after it. It is the engine.ChangeLogSink for the session and runs on
// the owning goroutine, after working memory assigned tags and the
// matcher ran. When SnapshotEvery is reached, a snapshot is taken
// inline — the engine state is batch-consistent at this point.
func (l *Log) Append(changes []ops5.Change, firedKeys []string) error {
	l.mu.Lock()
	if l.err != nil || l.closed {
		err := l.err
		l.mu.Unlock()
		return err
	}
	frame, err := encodeRecord(recState{
		Seq: l.seq + 1, counters: countersOf(l.eng), FiredKeys: firedKeys, Changes: changes,
	})
	if err != nil {
		l.err = err
		l.mu.Unlock()
		return err
	}
	if _, err := l.wal.Write(frame); err != nil {
		l.err = err
		l.mu.Unlock()
		return err
	}
	n := len(frame)
	if l.opts.Fsync == FsyncAlways {
		if err := l.wal.Sync(); err != nil {
			l.err = err
			l.mu.Unlock()
			return err
		}
	} else {
		l.dirty = true
	}
	l.seq++
	l.records++
	l.walBytes += int64(n)
	if l.onRecord != nil {
		// The frame was encoded fresh for this append, so ownership
		// passes to the observer.
		l.onRecord(l.seq, frame)
	}
	snapshotDue := l.opts.SnapshotEvery > 0 && l.records >= int64(l.opts.SnapshotEvery)
	l.mu.Unlock()

	if l.opts.ObserveAppend != nil {
		l.opts.ObserveAppend(n)
	}
	if snapshotDue {
		if _, err := l.Snapshot(); err != nil {
			return err
		}
	}
	return nil
}

// Snapshot checkpoints the engine's current state atomically (temp file
// then rename) and resets the WAL: records at or below the snapshot's
// sequence are dead, so the file is truncated. A crash between the
// rename and the truncate is benign — recovery skips records the
// snapshot already covers by sequence number. Runs on the owning
// goroutine.
func (l *Log) Snapshot() (SnapshotInfo, error) {
	t0 := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return SnapshotInfo{}, fmt.Errorf("durable: snapshot of closed log")
	}
	st := snapState{
		Seq: l.seq, NextTag: l.eng.WM.NextTag(), counters: countersOf(l.eng),
		FiredKeys: l.eng.CS.FiredKeys(), Classes: l.eng.WM.Classes(),
	}
	st.ExpTags, st.ExpDeadlines = l.eng.Expiries()
	payload := encodeSnapshot(st)
	if err := writeFileAtomic(filepath.Join(l.dir, snapshotFile), payload); err != nil {
		return SnapshotInfo{}, err
	}
	// The WAL tail is now redundant. Truncation is an optimisation, not
	// a correctness requirement (replay skips by sequence), so its
	// failure does not wedge the log. O_APPEND writes continue at the
	// new end of file.
	if err := l.wal.Truncate(0); err == nil {
		l.records, l.walBytes = 0, 0
	}
	l.snapSeq = l.seq
	info := SnapshotInfo{Seq: l.seq, Bytes: len(payload), WMEs: st.rows()}
	if l.opts.ObserveSnapshot != nil {
		l.opts.ObserveSnapshot(time.Since(t0), info.Bytes)
	}
	return info, nil
}

// SetOnRecord installs (or clears, with nil) the record observer: fn
// receives every subsequently appended record's sequence number and
// framed bytes, in append order. It is the tee point for WAL shipping —
// fn runs with the log's lock held, so it must be quick and must not
// call back into the log.
func (l *Log) SetOnRecord(fn func(seq int64, framed []byte)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.onRecord = fn
}

// ExportState checkpoints the session and returns the bytes a replica
// needs to mirror it from scratch: the manifest, the fresh snapshot
// payload, and the WAL sequence the snapshot captures. Records with
// greater sequence numbers layered on top reconstruct every later
// state. Runs on the owning goroutine, like Snapshot.
func (l *Log) ExportState() (manifest, snap []byte, seq int64, err error) {
	info, err := l.Snapshot()
	if err != nil {
		return nil, nil, 0, err
	}
	if manifest, err = os.ReadFile(filepath.Join(l.dir, manifestFile)); err != nil {
		return nil, nil, 0, err
	}
	if snap, err = os.ReadFile(filepath.Join(l.dir, snapshotFile)); err != nil {
		return nil, nil, 0, err
	}
	return manifest, snap, info.Seq, nil
}

// Close syncs and closes the WAL. The caller snapshots first if it
// wants a clean-shutdown checkpoint (psmd does, on SIGTERM).
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	stop, done := l.stop, l.done
	l.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.opts.Fsync != FsyncNever {
		if err := l.wal.Sync(); err != nil && l.err == nil {
			l.err = err
		}
	}
	return l.wal.Close()
}

// Remove deletes the session's durable directory. Called after Close
// when the session itself is deleted — a deleted session must not
// resurrect at the next restart.
func (l *Log) Remove() error { return os.RemoveAll(l.dir) }

// writeFileAtomic writes data so a crash leaves either the old file or
// the new one, never a torn mix: temp file in the same directory,
// fsync, rename over the target, fsync the directory.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a rename is durable. Errors are
// ignored on filesystems that do not support directory sync.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	d.Sync() // best effort; some platforms return EINVAL
	return nil
}
