package serve

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"github.com/cascade-ml/cascade/internal/models"
	"github.com/cascade-ml/cascade/internal/wal"
)

// Replication hooks (DESIGN.md §15). A serve process plays one of three
// roles: solo (the default — no replication, bitwise-identical to the
// pre-cluster behavior), primary (accepts writes and streams committed WAL
// frames to a standby through a Replicator), or standby (read-only until
// promoted; its WAL and model state advance only through ApplyReplicated /
// InstallReplicaSnapshot, driven by the cluster receiver). The serve package
// never imports internal/cluster — the coupling runs one way, through the
// small interfaces below.

// Role is the server's position in a replicated pair.
type Role int32

// Roles. Solo is the zero value: a server that never heard of replication.
const (
	RoleSolo Role = iota
	RolePrimary
	RoleStandby
)

func (r Role) String() string {
	switch r {
	case RolePrimary:
		return "primary"
	case RoleStandby:
		return "standby"
	default:
		return "solo"
	}
}

// Replicator is the primary's view of its replication stream (implemented by
// cluster.Sender). All methods must be safe for concurrent use.
type Replicator interface {
	// WaitAcked blocks until the standby has acknowledged seq (durable on
	// its disk) or the timeout expires.
	WaitAcked(seq uint64, timeout time.Duration) error
	// AckedSeq is the highest sequence the standby has acknowledged.
	AckedSeq() uint64
	// Connected reports whether the stream currently has a live standby.
	Connected() bool
}

// ReplOptions tunes the primary's replication behavior.
type ReplOptions struct {
	// AckTimeout bounds how long /ingest waits for the standby ack before
	// degrading to asynchronous replication for that batch (default 5s).
	// The batch is still acknowledged to the client — availability first —
	// but serve_repl_ack_timeouts_total counts the broken promise and
	// /readyz reports the lagging standby.
	AckTimeout time.Duration
	// LagBound is the committed-minus-acked record gap beyond which /readyz
	// reports "standby lagging" (default 1024).
	LagBound uint64
}

// WithStandby starts the server as a replication standby: /ingest refuses
// writes (typed 503, code "not_primary") until Promote flips it writable.
// /score serves throughout — a standby is the stale-ok answer for its shard.
func WithStandby() Option {
	return func(s *Server) { s.role.Store(int32(RoleStandby)) }
}

// SetReplicator attaches the replication stream and makes the server a
// primary. Call once, after StartWAL and before serving; a WAL is required
// (frames are what replication ships).
func (s *Server) SetReplicator(r Replicator, opts ReplOptions) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wlog == nil {
		return errors.New("serve: replication requires a WAL (WithWAL + StartWAL first)")
	}
	if Role(s.role.Load()) == RoleStandby {
		return errors.New("serve: a standby cannot also be a replication source")
	}
	if opts.AckTimeout <= 0 {
		opts.AckTimeout = 5 * time.Second
	}
	if opts.LagBound == 0 {
		opts.LagBound = 1024
	}
	s.repl, s.replOpts = r, opts
	s.role.Store(int32(RolePrimary))
	s.metrics.Gauge("serve_role").Set(float64(RolePrimary))
	return nil
}

// Role reports the server's current replication role.
func (s *Server) Role() Role { return Role(s.role.Load()) }

// Promote flips a standby writable — the router calls this (via
// POST /admin/promote) when the primary misses its health probes. The WAL
// tail is synced first so everything the standby acked is durable before the
// first independent write. Idempotent; promoting a primary or solo server is
// a no-op.
func (s *Server) Promote() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if Role(s.role.Load()) != RoleStandby {
		return false
	}
	if s.wlog != nil && !s.walBroken.Load() {
		if err := s.wlog.Sync(); err != nil {
			// The log just broke under us: stay a standby — an unwritable
			// primary is worse than a late failover, and /readyz now says
			// "wal broken" so the router keeps looking.
			logWarn(s.logger, "promotion aborted: wal sync failed", "error", err.Error())
			return false
		}
	}
	s.role.Store(int32(RolePrimary))
	s.metrics.Counter("serve_promotions_total").Inc()
	s.metrics.Gauge("serve_role").Set(float64(RolePrimary))
	logWarn(s.logger, "promoted to primary", "applied_seq", s.appliedSeq)
	return true
}

// handlePromote is POST /admin/promote.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	promoted := s.Promote()
	writeJSON(w, map[string]any{
		"role":        s.Role().String(),
		"promoted":    promoted,
		"applied_seq": s.WALAppliedSeq(),
	})
}

// WAL exposes the server's log to the replication sender (nil without one).
func (s *Server) WAL() *wal.Log {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wlog
}

// ReplSnapshot encodes the current state as a catch-up snapshot: the same
// CASCSNAP payload compaction writes, plus the applied-seq watermark the
// standby must resume tailing from. Used when a standby is too far behind
// for frame shipping (its next frame was compacted away).
func (s *Server) ReplSnapshot() (uint64, []byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	stream, err := models.CheckpointStream(s.model)
	if err != nil {
		return 0, nil, fmt.Errorf("serve: repl snapshot: %w", err)
	}
	snap := &serveSnapshot{
		Stream: stream, LastTime: s.lastTime,
		AppliedSeq: s.appliedSeq, Ingested: s.ingested, LastBid: s.lastBid,
	}
	var buf bytes.Buffer
	if err := encodeServeSnapshot(&buf, snap); err != nil {
		return 0, nil, err
	}
	return s.appliedSeq, buf.Bytes(), nil
}

// ReplicaNextSeq is the sequence number the standby's WAL expects next —
// what the receiver reports in the replication handshake.
func (s *Server) ReplicaNextSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wlog == nil {
		return 1
	}
	return s.wlog.NextSeq()
}

// ReplicaWritable reports whether the server still accepts replicated state.
// A promoted standby refuses its old primary: two writable nodes shipping
// frames at each other is how split brain starts.
func (s *Server) ReplicaWritable() bool { return Role(s.role.Load()) == RoleStandby }

// ApplyReplicated appends one of the primary's WAL records (verbatim, under
// the primary's sequence number) and applies it to the model — the standby
// half of WAL shipping. Durability is deferred: the receiver calls
// SyncReplica before acking a batch of frames.
func (s *Server) ApplyReplicated(seq uint64, payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if Role(s.role.Load()) != RoleStandby {
		return errors.New("serve: not a standby")
	}
	if s.wlog == nil {
		return errors.New("serve: standby has no WAL")
	}
	if s.walBroken.Load() {
		return fmt.Errorf("serve: standby wal broken")
	}
	events, bid, err := decodeEventBatch(payload)
	if err != nil {
		return fmt.Errorf("serve: replicated record %d: %w", seq, err)
	}
	if err := s.wlog.AppendRecord(seq, payload); err != nil {
		s.breakWAL(err)
		return err
	}
	s.applyEventsLocked(events)
	s.appliedSeq = seq
	if bid > s.lastBid {
		s.lastBid = bid
	}
	s.metrics.Counter("serve_events_ingested_total").Add(int64(len(events)))
	s.metrics.Gauge("serve_wal_applied_seq").Set(float64(seq))
	s.metrics.Gauge("serve_stream_time").Set(s.lastTime)
	s.maybeCompactLocked()
	return nil
}

// SyncReplica forces replicated records to disk — the receiver's ack
// barrier: nothing is acknowledged to the primary until this returns.
func (s *Server) SyncReplica() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wlog == nil {
		return errors.New("serve: standby has no WAL")
	}
	if err := s.wlog.Sync(); err != nil {
		s.breakWAL(err)
		return err
	}
	return nil
}

// InstallReplicaSnapshot replaces the standby's state with a primary
// catch-up snapshot: restore the stream state, persist the snapshot file
// (so a standby crash right after install recovers without re-transfer),
// and restart the WAL empty above the snapshot's watermark — the old log
// contents are below it by construction and would violate the
// strictly-increasing sequence invariant if kept.
func (s *Server) InstallReplicaSnapshot(seq uint64, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if Role(s.role.Load()) != RoleStandby {
		return errors.New("serve: not a standby")
	}
	if s.wlog == nil || s.walCfg == nil {
		return errors.New("serve: standby has no WAL")
	}
	snap, err := decodeServeSnapshot(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("serve: repl snapshot: %w", err)
	}
	if snap.AppliedSeq != seq {
		return fmt.Errorf("serve: repl snapshot watermark %d, header says %d", snap.AppliedSeq, seq)
	}
	if err := models.RestoreStream(s.model, snap.Stream); err != nil {
		return fmt.Errorf("serve: repl snapshot restore: %w", err)
	}
	s.lastTime, s.ingested, s.appliedSeq = snap.LastTime, snap.Ingested, snap.AppliedSeq
	if snap.LastBid > s.lastBid {
		s.lastBid = snap.LastBid
	}
	if _, err := writeSnapshotFile(s.walCfg.Dir, seq, snap, s.inj); err != nil {
		logWarn(s.logger, "repl snapshot not persisted; state is memory-only until next compaction", "error", err.Error())
	}
	if err := s.resetWALLocked(seq); err != nil {
		s.breakWAL(err)
		return err
	}
	s.metrics.Counter("serve_repl_snapshots_installed_total").Inc()
	s.metrics.Gauge("serve_wal_applied_seq").Set(float64(seq))
	return nil
}

// resetWALLocked discards every segment and reopens the log pinned above
// minSeq. Only the snapshot-install path uses it; the discarded records are
// all covered by the just-persisted snapshot.
func (s *Server) resetWALLocked(minSeq uint64) error {
	if err := s.wlog.Close(); err != nil {
		return fmt.Errorf("serve: resetting wal: %w", err)
	}
	names, err := wal.ListSegments(s.walCfg.Dir)
	if err != nil {
		return fmt.Errorf("serve: resetting wal: %w", err)
	}
	for _, name := range names {
		if err := os.Remove(filepath.Join(s.walCfg.Dir, name)); err != nil {
			return fmt.Errorf("serve: resetting wal: %w", err)
		}
	}
	l, _, err := wal.Open(wal.Options{
		Dir:           s.walCfg.Dir,
		SegmentBytes:  s.walCfg.SegmentBytes,
		Sync:          s.walCfg.Sync,
		SyncInterval:  s.walCfg.SyncInterval,
		MinSeq:        minSeq,
		Metrics:       s.metrics,
		MetricsPrefix: "serve_wal",
		Injector:      s.inj,
	})
	if err != nil {
		return fmt.Errorf("serve: resetting wal: %w", err)
	}
	s.wlog = l
	return nil
}

// replStats is the /stats "repl" section (nil when replication is off).
func (s *Server) replStatsLocked() map[string]any {
	role := Role(s.role.Load())
	if role == RoleSolo {
		return nil
	}
	st := map[string]any{"role": role.String(), "last_bid": s.lastBid}
	if s.repl != nil {
		acked := s.repl.AckedSeq()
		var lag uint64
		if s.wlog != nil {
			if committed := s.wlog.CommittedSeq(); committed > acked {
				lag = committed - acked
			}
		}
		st["acked_seq"] = acked
		st["lag"] = lag
		st["connected"] = s.repl.Connected()
	}
	return st
}
