package server

import (
	"context"
	"fmt"
	"log/slog"
)

// Cluster-facing surface: the hooks internal/cluster uses to place
// requests (HasSession), ship WAL state (ExportDurable, DurableSeqs),
// and move session ownership between nodes (AdoptSession, Demote).

// DataDir returns the configured durable data directory ("" when the
// server is not durable).
func (s *Server) DataDir() string { return s.cfg.DataDir }

// SessionDir returns the durable directory a session id maps to (the
// promotion path renames a replica directory to exactly this).
func (s *Server) SessionDir(id string) string { return s.sessionDir(id) }

// HasSession reports whether the session is live on this server. It is
// lock-free — placement calls it on every request.
func (s *Server) HasSession(id string) bool {
	_, ok := s.index.Load(id)
	return ok
}

// DurableSeqs returns the last WAL sequence of every live durable
// session — the owner-side positions piggybacked on cluster heartbeats
// so peers can compare replica freshness.
func (s *Server) DurableSeqs() map[string]int64 {
	out := make(map[string]int64)
	s.index.Range(func(k, v any) bool {
		if log := v.(*session).log; log != nil {
			seq, _, _, _ := log.Stats()
			out[k.(string)] = seq
		}
		return true
	})
	return out
}

// ExportDurable snapshots one session inline and returns its manifest
// and snapshot — the shipper's catch-up payload for a follower that is
// missing history (the follower's ack names the sequence). Runs on the
// session's shard, so the exported state is batch-consistent.
func (s *Server) ExportDurable(ctx context.Context, id string) (manifest, snap []byte, err error) {
	type export struct{ manifest, snap []byte }
	out, err := dispatchShard(s, ctx, s.shardFor(id), func(sh *shard) (export, error) {
		sess, err := sh.get(id)
		if err != nil {
			return export{}, err
		}
		if sess.log == nil {
			return export{}, badReqf("server: session %q is not durable", id)
		}
		m, sn, _, err := sess.log.ExportState()
		return export{m, sn}, err
	})
	return out.manifest, out.snap, err
}

// AdoptSession brings a session to life from its durable directory —
// the promotion path after a replica directory has been renamed into
// the live data area. The recovery is ordinary crash recovery; the
// replicator hook fires exactly as it does for created sessions, so the
// new owner immediately starts shipping to its own followers.
func (s *Server) AdoptSession(ctx context.Context, id string) error {
	if s.cfg.DataDir == "" {
		return badReqf("server: adopt %q: server is not durable", id)
	}
	return s.dispatch(ctx, id, func(sh *shard) error {
		if _, dup := sh.sessions[id]; dup {
			return fmt.Errorf("%w: %q", ErrSessionExists, id)
		}
		sess, rstats, err := s.recoverSession(s.sessionDir(id))
		if err != nil {
			return fmt.Errorf("server: adopt %q: %w", id, err)
		}
		if sess.id != id {
			return fmt.Errorf("server: adopt %q: directory holds session %q", id, sess.id)
		}
		sh.sessions[id] = sess
		s.index.Store(id, sess)
		s.sessions.Add(1)
		s.logger.Info("session adopted",
			"session", id, "shard", sh.id,
			"snapshot_seq", rstats.SnapshotSeq, "replayed", rstats.Replayed,
			"wm_size", sess.sys.WM.Size(), "conflicts", sess.sys.CS.Len())
		return nil
	})
}

// Demote takes a session out of service on this node: a final snapshot
// captures its full state, the log closes, and the session unregisters
// — but unlike DeleteSession the durable directory survives, returned
// to the caller, which renames it into the replica area and continues
// as a follower. The ownership-handoff path when the ring says another
// node should serve the session.
func (s *Server) Demote(ctx context.Context, id string) (string, error) {
	return dispatchShard(s, ctx, s.shardFor(id), func(sh *shard) (string, error) {
		sess, err := sh.get(id)
		if err != nil {
			return "", err
		}
		if sess.log == nil {
			return "", badReqf("server: session %q is not durable", id)
		}
		if _, err := sess.log.Snapshot(); err != nil {
			return "", fmt.Errorf("server: demote %q: final snapshot: %w", id, err)
		}
		s.unregister(sh, sess, false)
		if err := sess.log.Close(); err != nil {
			s.logger.Warn("wal close on demote", "session", id, "err", err)
		}
		return sess.log.Dir(), nil
	})
}

// SetDraining flips /readyz to 503 ahead of shutdown, so load balancers
// and cluster routing stop sending new work while in-flight requests
// and the final snapshot push complete.
func (s *Server) SetDraining() { s.state.Store(stateDraining) }

// Ready reports whether the server is past startup recovery and not
// draining (the /readyz contract).
func (s *Server) Ready() bool { return s.state.Load() == stateServing }

// Logger exposes the server's structured logger so the cluster layer
// shares one log stream.
func (s *Server) Logger() *slog.Logger { return s.logger }
