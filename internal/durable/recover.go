package durable

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/engine"
	"repro/internal/ops5"
)

// RecoverStats reports what a recovery did.
type RecoverStats struct {
	// SnapshotSeq is the WAL sequence the loaded snapshot captured.
	SnapshotSeq int64
	// Replayed is the number of WAL records applied after the snapshot.
	Replayed int64
	// Truncated reports that the WAL ended in a torn or corrupt record,
	// which was cut at TruncatedAt (a byte offset). Expected after a
	// crash mid-append; the lost record was never acknowledged.
	Truncated   bool
	TruncatedAt int64
}

// Recover rebuilds a session's engine state from its durable directory:
// load the snapshot (restoring working memory with original time tags,
// matcher memories, conflict set and refraction marks), then replay the
// WAL tail through the engine's apply path, then finish the logical
// tick the last record left open (below). A torn tail — the frame a
// crash cut short — is truncated away, since nothing in it was ever
// acknowledged. A whole frame that cannot be applied is not: Recover
// fails with a *RecordError and changes no file, because cutting there
// would destroy acknowledged history (a WAL another version wrote, say).
// The engine must be freshly constructed with an empty working memory
// (use core.Options.NoInitialWM; the snapshot already contains the
// program's initial state).
func Recover(dir string, eng *engine.Engine, opts Options) (*Log, RecoverStats, error) {
	var stats RecoverStats
	data, err := os.ReadFile(filepath.Join(dir, snapshotFile))
	if err != nil {
		return nil, stats, fmt.Errorf("durable: read snapshot: %w", err)
	}
	snap, err := decodeSnapshot(data)
	if err != nil {
		return nil, stats, err
	}
	if err := eng.Restore(snap.wmes(), snap.NextTag, snap.FiredKeys); err != nil {
		return nil, stats, fmt.Errorf("durable: restore snapshot: %w", err)
	}
	snap.counters.restore(eng)
	eng.RestoreExpiries(snap.ExpTags, snap.ExpDeadlines)
	stats.SnapshotSeq = snap.Seq

	walPath := filepath.Join(dir, walFile)
	wal, err := os.OpenFile(walPath, os.O_CREATE|os.O_RDWR, 0o666)
	if err != nil {
		return nil, stats, err
	}
	defer wal.Close()
	seq, offset, err := scanWAL(wal, snap.Seq, func(_ int64, payload []byte) error {
		rec, err := decodeRecord(payload)
		if err == nil {
			err = applyRecord(eng, rec)
		}
		if err == nil {
			stats.Replayed++
		}
		return err
	})
	if errors.Is(err, errTornRecord) {
		// Everything from here on was never acknowledged as durable. Cut
		// it off so the next append starts at a clean boundary.
		stats.Truncated, stats.TruncatedAt = true, offset
		if err = wal.Truncate(offset); err == nil {
			err = wal.Sync()
		}
	}
	if err != nil {
		return nil, stats, fmt.Errorf("durable: recover %s: %w", walPath, err)
	}

	l, err := newLog(dir, eng, opts)
	if err != nil {
		return nil, stats, err
	}
	l.seq, l.snapSeq = seq, snap.Seq
	l.records = seq - snap.Seq
	if fi, statErr := wal.Stat(); statErr == nil {
		l.walBytes = fi.Size()
	}
	l.recovered, l.replayed = true, stats.Replayed

	// A cycle logs its firing batch and then its expiry batch as two
	// records, so a crash between them recovers with expiries already
	// due. Retract them now, as the interrupted cycle would have, and log
	// the batch like any other; anywhere else this finds nothing due.
	sink := eng.Sink
	eng.Sink = func(changes []ops5.Change, firedKeys []string) { err = l.Append(changes, firedKeys) }
	eng.ExpireDue()
	eng.Sink = sink
	if err != nil {
		l.Close()
		return nil, stats, fmt.Errorf("durable: log recovered expiries: %w", err)
	}
	return l, stats, nil
}

// applyRecord replays one record: the change batch through the engine,
// then the counters (absolute values) and refraction marks. The logical
// clock is restored BEFORE the batch applies — TTL deadlines of
// replayed inserts recompute from it, and they must land on the values
// the live run computed (the expiry-determinism rule; see engine/ttl.go).
func applyRecord(eng *engine.Engine, rec recState) error {
	eng.Clock = rec.Clock
	if err := eng.Replay(rec.Changes, rec.FiredKeys); err != nil {
		return err
	}
	rec.counters.restore(eng)
	return nil
}
