package durable

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// Replication errors a shipper reacts to: a gap means the follower is
// missing history and needs a snapshot catch-up; a stale snapshot means
// the follower already holds newer state than the sender.
var (
	// ErrSequenceGap reports a record whose sequence does not extend the
	// history before it. For a shipped record that means records were
	// lost in transit (or the standby has no snapshot yet) and the sender
	// must re-ship a snapshot before any further records can land.
	ErrSequenceGap = errors.New("durable: record out of sequence")
	// ErrStaleSnapshot reports a shipped snapshot older than the state
	// the standby already holds; installing it would lose history.
	ErrStaleSnapshot = errors.New("durable: replicated snapshot older than standby state")
)

// Standby mirrors a remote session's durable state on a follower node:
// the manifest and latest shipped snapshot, plus a WAL of shipped
// records past that snapshot. The on-disk layout is identical to a live
// session's durable directory, so promotion is exactly crash recovery —
// rename the directory into place and Recover. All methods are safe for
// concurrent use (the replicate handler and the reconcile loop both
// touch standbys).
type Standby struct {
	dir string

	mu      sync.Mutex
	wal     *os.File
	hasSnap bool
	snapSeq int64 // sequence captured by the installed snapshot
	seq     int64 // last contiguous shipped record
	records int64 // records held past the snapshot
	closed  bool
}

// OpenStandby opens (or initialises) a standby directory, scanning any
// existing shipped WAL for its last contiguous sequence and truncating
// whatever follows it.
func OpenStandby(dir string) (*Standby, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, err
	}
	st := &Standby{dir: dir}
	if data, err := os.ReadFile(filepath.Join(dir, snapshotFile)); err == nil {
		seq, err := snapshotSeq(data)
		if err != nil {
			return nil, fmt.Errorf("durable: standby snapshot: %w", err)
		}
		st.hasSnap, st.snapSeq, st.seq = true, seq, seq
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	// O_APPEND keeps every write at the end of file even after a
	// truncate, so the scan below never has to reposition for appends.
	wal, err := os.OpenFile(filepath.Join(dir, walFile), os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o666)
	if err != nil {
		return nil, err
	}
	st.wal = wal
	seq, offset, err := scanWAL(wal, st.snapSeq, func(int64, []byte) error {
		st.records++
		return nil
	})
	st.seq = seq
	if err != nil {
		// Torn, foreign or out of sequence alike: a replica is rebuilt
		// from its owner, so it keeps what extends its history and drops
		// the rest for the next shipment or resync to replace.
		if err := wal.Truncate(offset); err != nil {
			wal.Close()
			return nil, fmt.Errorf("durable: truncate standby WAL: %w", err)
		}
	}
	return st, nil
}

// Dir returns the standby's directory.
func (st *Standby) Dir() string { return st.dir }

// Seq returns the last contiguous shipped sequence (the standby's
// replication position; owner seq minus this is the replication lag).
func (st *Standby) Seq() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.seq
}

// Stats snapshots the standby's counters: replication position, the
// sequence captured by the installed snapshot, and records held past it.
func (st *Standby) Stats() (seq, snapSeq, records int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.seq, st.snapSeq, st.records
}

// InstallSnapshot replaces the standby's full state with a shipped
// manifest and snapshot — the catch-up path after a gap, and the
// initial attach. Shipped records the snapshot already covers are
// discarded. A snapshot older than the standby's current position is
// rejected with ErrStaleSnapshot so a lagging sender can never roll a
// replica backwards. Returns the standby's new sequence.
func (st *Standby) InstallSnapshot(manifest, snap []byte) (int64, error) {
	if !json.Valid(manifest) {
		return 0, fmt.Errorf("durable: shipped manifest is not valid JSON")
	}
	snapSeq, err := snapshotSeq(snap)
	if err != nil {
		return 0, fmt.Errorf("durable: shipped snapshot: %w", err)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return st.seq, fmt.Errorf("durable: install into closed standby")
	}
	if st.hasSnap && snapSeq < st.seq {
		return st.seq, ErrStaleSnapshot
	}
	if err := writeFileAtomic(filepath.Join(st.dir, manifestFile), manifest); err != nil {
		return st.seq, err
	}
	if err := writeFileAtomic(filepath.Join(st.dir, snapshotFile), snap); err != nil {
		return st.seq, err
	}
	if err := st.wal.Truncate(0); err != nil {
		return st.seq, err
	}
	st.hasSnap, st.snapSeq, st.seq, st.records = true, snapSeq, snapSeq, 0
	return st.seq, nil
}

// AppendRecords ingests a stream of framed WAL records shipped by the
// session's owner. Records at or below the standby's position are
// duplicates of an earlier shipment and skipped; a record that does not
// extend the position by exactly one aborts with ErrSequenceGap (the
// sender re-ships a snapshot), and a record of another format version
// is refused, never stored. Returns the standby's position after the
// stream and the number of records appended.
func (st *Standby) AppendRecords(stream io.Reader) (seq int64, appended int, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return st.seq, 0, fmt.Errorf("durable: append into closed standby")
	}
	if !st.hasSnap {
		return st.seq, 0, ErrSequenceGap
	}
	st.seq, _, err = scanWAL(stream, st.seq, func(_ int64, payload []byte) error {
		if _, err := appendFrame(st.wal, payload); err != nil {
			return err
		}
		st.records++
		appended++
		return nil
	})
	if errors.Is(err, errTornRecord) {
		err = fmt.Errorf("durable: shipped record stream: %w", err)
	}
	if appended > 0 {
		if serr := st.wal.Sync(); serr != nil && err == nil {
			err = serr
		}
	}
	return st.seq, appended, err
}

// Export reads the standby's current state for pushing to another node
// (the fresher-replica handoff path): manifest, snapshot, and the
// shipped WAL tail (already framed — it streams as-is).
func (st *Standby) Export() (manifest, snap, walTail []byte, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.hasSnap {
		return nil, nil, nil, fmt.Errorf("durable: standby %s holds no snapshot", st.dir)
	}
	if manifest, err = os.ReadFile(filepath.Join(st.dir, manifestFile)); err != nil {
		return nil, nil, nil, err
	}
	if snap, err = os.ReadFile(filepath.Join(st.dir, snapshotFile)); err != nil {
		return nil, nil, nil, err
	}
	if walTail, err = os.ReadFile(filepath.Join(st.dir, walFile)); err != nil {
		return nil, nil, nil, err
	}
	return manifest, snap, walTail, nil
}

// Close closes the standby's WAL. The directory stays on disk, ready to
// be promoted (renamed into the live area and recovered) or reopened.
func (st *Standby) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return nil
	}
	st.closed = true
	return st.wal.Close()
}

// Remove deletes the standby's directory — the owner deleted the
// session, so the replica must not survive to resurrect it.
func (st *Standby) Remove() error {
	st.Close()
	return os.RemoveAll(st.dir)
}
