package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/cascade-ml/cascade/internal/graph"
	"github.com/cascade-ml/cascade/internal/models"
	"github.com/cascade-ml/cascade/internal/obs"
	"github.com/cascade-ml/cascade/internal/resilience/faultinject"
	"github.com/cascade-ml/cascade/internal/wal"
)

// Serve durability (DESIGN.md §14). With a WAL configured, /ingest appends
// the request's event batch to a segmented checksummed log BEFORE applying
// it to the model, so an ack implies the batch survives a crash. Startup
// loads the newest valid compaction snapshot, then replays every logged
// batch past the snapshot's watermark through the same BeginBatch/EndBatch
// cycle the live path runs — batch boundaries are preserved in the log
// precisely because pending messages collapse per node, so replaying the
// same events with different boundaries would reconstruct different
// memories. Every CompactEvery batches the server writes a snapshot
// atomically and truncates the segments it obsoletes. Any WAL write/sync/
// rotate failure flips the server to read-only: /ingest returns a typed 503
// (code "wal_unavailable"), /score keeps serving from state that is fully
// durable.

// WALConfig wires a write-ahead log under /ingest. Dir is required; zero
// values elsewhere take the defaults below. The server's injector (see
// WithInjector) is shared with the log, so the wal/* fault points work
// end-to-end.
type WALConfig struct {
	// Dir holds the segment files and compaction snapshots.
	Dir string
	// SegmentBytes caps each segment file (0 → wal.DefaultSegmentBytes).
	SegmentBytes int64
	// Sync is the durability policy for acks (default wal.SyncBatch: fsync
	// once per ingest request, so every acked batch is durable).
	Sync wal.SyncPolicy
	// SyncInterval is the flush cadence under wal.SyncInterval.
	SyncInterval time.Duration
	// CompactEvery triggers compaction after that many ingest batches
	// (0 → DefaultCompactEvery, negative → never).
	CompactEvery int
	// SnapshotKeep bounds retained compaction snapshots (0 → 2).
	SnapshotKeep int
}

// DefaultCompactEvery is the compaction cadence (in ingest batches) when
// WALConfig.CompactEvery is zero.
const DefaultCompactEvery = 256

// WithWAL enables the durability subsystem. The caller must invoke
// StartWAL after New (and before serving) to load the snapshot, recover
// the log, and replay.
func WithWAL(cfg WALConfig) Option {
	return func(s *Server) { s.walCfg = &cfg }
}

// WALRecovery summarizes what StartWAL reconstructed.
type WALRecovery struct {
	// SnapshotPath is the compaction snapshot the state was loaded from
	// ("" when none existed).
	SnapshotPath string
	// SnapshotSeq is the loaded snapshot's applied-seq watermark.
	SnapshotSeq uint64
	// Log is the wal opener's account of the segment scan (torn-tail
	// truncation included).
	Log *wal.Recovery
	// ReplayedRecords / ReplayedEvents are the batches and events applied
	// on top of the snapshot.
	ReplayedRecords uint64
	ReplayedEvents  uint64
}

// errFeatsUnsupported rejects finite edge features on /ingest: the feature
// table is fixed at training time and the serving universe has no row to
// attach them to, so accepting (and dropping) them would silently change
// semantics. Non-finite features are rejected as ErrNonFiniteFeature first.
var errFeatsUnsupported = errors.New("edge features not supported on ingest (feature table is fixed at training time)")

// validateEventsIn maps the wire batch onto graph events, enforcing the
// graph package's stream invariants (typed errors → 400 at the caller)
// before anything touches the WAL or the model. Caller holds s.mu (the
// time-order check reads lastTime).
func (s *Server) validateEventsIn(in []EventIn) ([]graph.Event, error) {
	events := make([]graph.Event, len(in))
	for i, e := range in {
		for _, f := range e.Feats {
			if math.IsNaN(float64(f)) || math.IsInf(float64(f), 0) {
				return nil, fmt.Errorf("%w: event %d", graph.ErrNonFiniteFeature, i)
			}
		}
		if len(e.Feats) > 0 {
			return nil, fmt.Errorf("event %d: %w", i, errFeatsUnsupported)
		}
		events[i] = graph.Event{Src: e.Src, Dst: e.Dst, Time: e.Time, FeatIdx: -1}
	}
	if err := graph.ValidateEvents(events, s.numNodes, s.lastTime); err != nil {
		return nil, err
	}
	return events, nil
}

// StartWAL brings the durability subsystem up: load the newest valid
// compaction snapshot, open the log (truncating crash debris), and replay
// logged batches past the snapshot watermark. Must run after New and
// before the server accepts requests; without WithWAL it is a no-op
// returning an empty summary.
func (s *Server) StartWAL() (*WALRecovery, error) {
	if s.walCfg == nil {
		return &WALRecovery{}, nil
	}
	cfg := *s.walCfg
	if cfg.Dir == "" {
		return nil, errors.New("serve: WALConfig.Dir required")
	}
	if cfg.CompactEvery == 0 {
		cfg.CompactEvery = DefaultCompactEvery
	}
	if cfg.SnapshotKeep <= 0 {
		cfg.SnapshotKeep = 2
	}
	s.walCfg = &cfg
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: wal dir: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := &WALRecovery{}
	snap, path, err := loadNewestSnapshot(cfg.Dir)
	if err != nil {
		return nil, err
	}
	if snap != nil {
		if err := models.RestoreStream(s.model, snap.Stream); err != nil {
			return nil, fmt.Errorf("serve: restoring wal snapshot %s: %w", path, err)
		}
		s.lastTime = snap.LastTime
		s.ingested = snap.Ingested
		s.appliedSeq = snap.AppliedSeq
		s.lastBid = snap.LastBid
		rec.SnapshotPath, rec.SnapshotSeq = path, snap.AppliedSeq
	}
	l, logRec, err := wal.Open(wal.Options{
		Dir:           cfg.Dir,
		SegmentBytes:  cfg.SegmentBytes,
		Sync:          cfg.Sync,
		SyncInterval:  cfg.SyncInterval,
		MinSeq:        s.appliedSeq,
		Metrics:       s.metrics,
		MetricsPrefix: "serve_wal",
		Injector:      s.inj,
	})
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	rec.Log = logRec
	var replayedEvents uint64
	n, err := l.Replay(s.appliedSeq, func(seq uint64, payload []byte) error {
		events, bid, derr := decodeEventBatch(payload)
		if derr != nil {
			return fmt.Errorf("record %d: %w", seq, derr)
		}
		s.applyEventsLocked(events)
		s.appliedSeq = seq
		if bid > s.lastBid {
			s.lastBid = bid
		}
		replayedEvents += uint64(len(events))
		return nil
	})
	if err != nil {
		l.Close()
		return nil, fmt.Errorf("serve: wal replay: %w", err)
	}
	rec.ReplayedRecords, rec.ReplayedEvents = n, replayedEvents
	s.metrics.Counter("serve_wal_replayed_records_total").Add(int64(n))
	s.metrics.Counter("serve_wal_replayed_events_total").Add(int64(replayedEvents))
	s.metrics.Gauge("serve_wal_applied_seq").Set(float64(s.appliedSeq))
	s.wlog = l
	return rec, nil
}

// applyEventsLocked runs the trainer's BeginBatch/EndBatch cycle on one
// ingest batch and advances the stream counters. Caller holds s.mu; events
// are already validated. Both the live path and startup replay funnel
// through here — that shared funnel is what makes recovery bitwise.
func (s *Server) applyEventsLocked(events []graph.Event) {
	upd := s.model.BeginBatch()
	s.model.EndBatch(events)
	upd.FreeTape()
	if n := len(events); n > 0 {
		s.lastTime = events[n-1].Time
		s.ingested += int64(n)
	}
}

// appendWALLocked logs one validated batch before it is applied. A failed
// append flips the server read-only (the WAL itself is sticky-broken); the
// request must NOT be applied, since the client would be acked state that
// only exists in memory.
func (s *Server) appendWALLocked(events []graph.Event, bid uint64) (uint64, error) {
	payload := encodeEventBatch(events, bid)
	sp := s.tracer.Start("serve_wal_append", obs.PhaseOther)
	seq, err := s.wlog.Append(payload)
	sp.SetInt("bytes", int64(len(payload)))
	sp.SetInt("events", int64(len(events)))
	sp.SetInt("seq", int64(seq))
	sp.End()
	if err != nil {
		s.breakWAL(err)
		return 0, err
	}
	return seq, nil
}

// breakWAL records the first WAL failure: log it, dump the flight recorder
// while the evidence is fresh, and flip /ingest to the typed-503 path.
// /score is untouched — scoring never writes the log.
func (s *Server) breakWAL(err error) {
	if s.walBroken.Swap(true) {
		return
	}
	logWarn(s.logger, "wal broken; ingest degraded to read-only", "error", err.Error())
	if s.recorder != nil {
		if path, derr := s.recorder.Dump("wal_broken"); derr != nil {
			logWarn(s.logger, "flight dump failed", "reason", "wal_broken", "error", derr.Error())
		} else {
			s.metrics.Counter("serve_flight_dumps_total").Inc()
			logWarn(s.logger, "flight dump written", "reason", "wal_broken", "path", path)
		}
	}
}

// maybeCompactLocked counts ingest batches and, on the configured cadence,
// compacts: write a snapshot of the fully-applied state, then drop the
// segments it obsoletes. Snapshot failure is survivable — the log is still
// intact, so the server keeps serving and retries next cadence.
func (s *Server) maybeCompactLocked() {
	if s.wlog == nil || s.walCfg.CompactEvery <= 0 {
		return
	}
	s.sinceCompact++
	if s.sinceCompact < s.walCfg.CompactEvery {
		return
	}
	s.sinceCompact = 0
	s.CompactWALLocked()
}

// CompactWALLocked writes a compaction snapshot at the current applied-seq
// watermark and truncates obsolete segments. Exported through CompactWAL
// for tests and operational tooling; caller holds s.mu.
func (s *Server) CompactWALLocked() {
	stream, err := models.CheckpointStream(s.model)
	if err == nil {
		snap := &serveSnapshot{Stream: stream, LastTime: s.lastTime, AppliedSeq: s.appliedSeq, Ingested: s.ingested, LastBid: s.lastBid}
		_, err = writeSnapshotFile(s.walCfg.Dir, s.appliedSeq, snap, s.inj)
	}
	if err != nil {
		s.metrics.Counter("serve_wal_snapshot_errors_total").Inc()
		logWarn(s.logger, "wal compaction snapshot failed; log retained", "error", err.Error())
		return
	}
	s.metrics.Counter("serve_wal_compactions_total").Inc()
	// Retention holds back for a connected standby: records it has not yet
	// acknowledged stay shippable. A disconnected standby does not pin the
	// log (disk is bounded) — it catches up from a snapshot on reconnect.
	keep := s.appliedSeq
	if s.repl != nil && s.repl.Connected() {
		if acked := s.repl.AckedSeq(); acked < keep {
			keep = acked
		}
	}
	if _, err := s.wlog.TruncateBefore(keep + 1); err != nil {
		logWarn(s.logger, "wal truncation failed", "error", err.Error())
	}
	if err := pruneSnapshots(s.walCfg.Dir, s.walCfg.SnapshotKeep); err != nil {
		logWarn(s.logger, "wal snapshot prune failed", "error", err.Error())
	}
}

// CompactWAL takes the model lock and compacts immediately (no-op without
// a WAL).
func (s *Server) CompactWAL() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wlog != nil {
		s.CompactWALLocked()
	}
}

// FlushWAL forces appended records to disk — the graceful-drain hook, so a
// clean SIGTERM never leans on replay. Safe without a WAL (returns nil).
func (s *Server) FlushWAL() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wlog == nil {
		return nil
	}
	return s.wlog.Sync()
}

// CloseWAL flushes and releases the log (no-op without one). Call after the
// HTTP server has fully drained.
func (s *Server) CloseWAL() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wlog == nil {
		return nil
	}
	err := s.wlog.Close()
	s.wlog = nil
	return err
}

// WALAppliedSeq reports the last WAL sequence applied to the model.
func (s *Server) WALAppliedSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appliedSeq
}

// --- event-batch record codec -------------------------------------------

// Event-batch record codec, one WAL record per ingest request:
//
//	v1: [version=1 u8 | count u32 | count × (src i32, dst i32, time f64)]
//	v2: [version=2 u8 | bid u64 | count u32 | events as v1]
//
// all little-endian. v2 exists only for router-originated batches (bid > 0):
// a direct batch still encodes as v1 byte-for-byte, which is what keeps
// non-replicated single-node logs bitwise-identical to the pre-cluster
// format. FeatIdx is not encoded — ingest events never carry features (see
// validateEventsIn).
const (
	eventBatchVersion    = 1
	eventBatchVersionBid = 2
)

const eventWireBytes = 16

func encodeEventBatch(events []graph.Event, bid uint64) []byte {
	head := 5
	if bid > 0 {
		head = 13
	}
	buf := make([]byte, head+eventWireBytes*len(events))
	off := 1
	if bid > 0 {
		buf[0] = eventBatchVersionBid
		binary.LittleEndian.PutUint64(buf[1:9], bid)
		off = 9
	} else {
		buf[0] = eventBatchVersion
	}
	binary.LittleEndian.PutUint32(buf[off:off+4], uint32(len(events)))
	off += 4
	for _, e := range events {
		binary.LittleEndian.PutUint32(buf[off:], uint32(e.Src))
		binary.LittleEndian.PutUint32(buf[off+4:], uint32(e.Dst))
		binary.LittleEndian.PutUint64(buf[off+8:], math.Float64bits(e.Time))
		off += eventWireBytes
	}
	return buf
}

func decodeEventBatch(p []byte) ([]graph.Event, uint64, error) {
	if len(p) < 5 {
		return nil, 0, fmt.Errorf("serve: event batch record truncated (%d bytes)", len(p))
	}
	var bid uint64
	off := 1
	switch p[0] {
	case eventBatchVersion:
	case eventBatchVersionBid:
		if len(p) < 13 {
			return nil, 0, fmt.Errorf("serve: event batch record truncated (%d bytes)", len(p))
		}
		bid = binary.LittleEndian.Uint64(p[1:9])
		if bid == 0 {
			return nil, 0, errors.New("serve: v2 event batch record with zero bid")
		}
		off = 9
	default:
		return nil, 0, fmt.Errorf("serve: event batch record version %d, this build reads ≤ %d", p[0], eventBatchVersionBid)
	}
	n := int(binary.LittleEndian.Uint32(p[off : off+4]))
	off += 4
	if len(p) != off+eventWireBytes*n {
		return nil, 0, fmt.Errorf("serve: event batch record declares %d events in %d bytes", n, len(p))
	}
	events := make([]graph.Event, n)
	for i := range events {
		events[i] = graph.Event{
			Src:     int32(binary.LittleEndian.Uint32(p[off:])),
			Dst:     int32(binary.LittleEndian.Uint32(p[off+4:])),
			Time:    math.Float64frombits(binary.LittleEndian.Uint64(p[off+8:])),
			FeatIdx: -1,
		}
		off += eventWireBytes
	}
	return events, bid, nil
}

// --- compaction snapshots ------------------------------------------------

// serveSnapshot is the compaction snapshot payload: the model's full stream
// state plus the serving counters replay must resume from. Weights are
// deliberately absent — the serving process reconstructs them from its own
// training config, exactly as the reference process does.
type serveSnapshot struct {
	Stream     *models.StreamCheckpoint
	LastTime   float64
	AppliedSeq uint64
	Ingested   int64
	// LastBid carries the router-batch dedup watermark across restarts and
	// snapshot catch-up (gob leaves it zero when decoding pre-cluster
	// snapshots, which is exactly the solo default).
	LastBid uint64
}

// Snapshot-file format mirrors resilience's checkpoints: magic, version,
// payload length, gob payload, CRC32C over everything before it.
var snapMagic = [8]byte{'C', 'A', 'S', 'C', 'S', 'N', 'A', 'P'}

const snapFormatVersion uint32 = 1

var errSnapCorrupt = errors.New("serve: wal snapshot corrupt")

func snapshotName(seq uint64) string { return fmt.Sprintf("snap-%016d.snap", seq) }

func snapshotSeq(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "snap-") || !strings.HasSuffix(name, ".snap") {
		return 0, false
	}
	seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), ".snap"), 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

func listSnapshots(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if _, ok := snapshotSeq(e.Name()); ok && !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

func encodeServeSnapshot(w io.Writer, c *serveSnapshot) error {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(c); err != nil {
		return fmt.Errorf("serve: encoding wal snapshot: %w", err)
	}
	var buf bytes.Buffer
	buf.Write(snapMagic[:])
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:4], snapFormatVersion)
	binary.LittleEndian.PutUint64(hdr[4:12], uint64(payload.Len()))
	buf.Write(hdr[:])
	buf.Write(payload.Bytes())
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc32.Checksum(buf.Bytes(), crc32.MakeTable(crc32.Castagnoli)))
	buf.Write(tail[:])
	_, err := w.Write(buf.Bytes())
	return err
}

func decodeServeSnapshot(r io.Reader) (*serveSnapshot, error) {
	var head [20]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, fmt.Errorf("%w: header: %v", errSnapCorrupt, err)
	}
	if !bytes.Equal(head[:8], snapMagic[:]) {
		return nil, fmt.Errorf("%w: bad magic %q", errSnapCorrupt, head[:8])
	}
	if v := binary.LittleEndian.Uint32(head[8:12]); v != snapFormatVersion {
		return nil, fmt.Errorf("serve: wal snapshot version %d, this build reads %d", v, snapFormatVersion)
	}
	plen := binary.LittleEndian.Uint64(head[12:20])
	if plen > 1<<32 {
		return nil, fmt.Errorf("%w: implausible payload length %d", errSnapCorrupt, plen)
	}
	// Grow as bytes arrive rather than trust plen with an up-front allocation.
	var payload bytes.Buffer
	if _, err := io.CopyN(&payload, r, int64(plen)); err != nil {
		return nil, fmt.Errorf("%w: payload: %v", errSnapCorrupt, err)
	}
	var tail [4]byte
	if _, err := io.ReadFull(r, tail[:]); err != nil {
		return nil, fmt.Errorf("%w: checksum: %v", errSnapCorrupt, err)
	}
	crc := crc32.New(crc32.MakeTable(crc32.Castagnoli))
	crc.Write(head[:])
	crc.Write(payload.Bytes())
	if got, want := binary.LittleEndian.Uint32(tail[:]), crc.Sum32(); got != want {
		return nil, fmt.Errorf("%w: stored %08x, computed %08x", errSnapCorrupt, got, want)
	}
	var c serveSnapshot
	if err := gob.NewDecoder(&payload).Decode(&c); err != nil {
		return nil, fmt.Errorf("%w: decoding payload: %v", errSnapCorrupt, err)
	}
	return &c, nil
}

// writeSnapshotFile publishes one compaction snapshot crash-safely (temp +
// fsync + rename + dir sync, like resilience.WriteSnapshotFile). The
// PointWALSnapshot fault fails it deterministically for the chaos suite.
func writeSnapshotFile(dir string, seq uint64, c *serveSnapshot, inj *faultinject.Injector) (string, error) {
	if err := inj.Err(faultinject.PointWALSnapshot); err != nil {
		return "", fmt.Errorf("serve: writing wal snapshot: %w", err)
	}
	path := filepath.Join(dir, snapshotName(seq))
	tmp, err := os.CreateTemp(dir, ".snap-*.tmp")
	if err != nil {
		return "", fmt.Errorf("serve: creating wal snapshot: %w", err)
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err := encodeServeSnapshot(tmp, c); err != nil {
		return "", err
	}
	if err := tmp.Sync(); err != nil {
		return "", fmt.Errorf("serve: syncing wal snapshot: %w", err)
	}
	name := tmp.Name()
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		tmp = nil
		return "", fmt.Errorf("serve: closing wal snapshot: %w", err)
	}
	tmp = nil
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return "", fmt.Errorf("serve: publishing wal snapshot: %w", err)
	}
	// The rename must itself be durable before this snapshot can justify
	// deleting the segments it covers: a crash that loses the directory
	// entry but not the segment deletes would lose acked events. So the dir
	// fsync is load-bearing, not best-effort — a failure aborts compaction
	// (the caller keeps the log and retries next cadence).
	d, derr := os.Open(dir)
	if derr != nil {
		return "", fmt.Errorf("serve: syncing wal snapshot dir: %w", derr)
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return "", fmt.Errorf("serve: syncing wal snapshot dir: %w", err)
	}
	d.Close()
	return path, nil
}

// loadNewestSnapshot walks the snapshots newest-first and returns the first
// one that verifies; corrupt newer files are skipped (the previous snapshot
// plus a longer replay still reconstructs the same state), and a directory
// with none returns (nil, "", nil).
func loadNewestSnapshot(dir string) (*serveSnapshot, string, error) {
	names, err := listSnapshots(dir)
	if err != nil {
		return nil, "", fmt.Errorf("serve: listing wal snapshots: %w", err)
	}
	for i := len(names) - 1; i >= 0; i-- {
		path := filepath.Join(dir, names[i])
		f, err := os.Open(path)
		if err != nil {
			continue
		}
		c, err := decodeServeSnapshot(f)
		f.Close()
		if err != nil {
			continue
		}
		return c, path, nil
	}
	return nil, "", nil
}

func pruneSnapshots(dir string, keep int) error {
	if keep <= 0 {
		return nil
	}
	names, err := listSnapshots(dir)
	if err != nil {
		return err
	}
	for _, name := range names[:max(0, len(names)-keep)] {
		if rerr := os.Remove(filepath.Join(dir, name)); rerr != nil && err == nil {
			err = rerr
		}
	}
	return err
}
