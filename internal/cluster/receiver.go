package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"time"

	"github.com/cascade-ml/cascade/internal/obs"
	"github.com/cascade-ml/cascade/internal/resilience/faultinject"
	"github.com/cascade-ml/cascade/internal/wal"
)

// ReplicaState is the standby-side surface the receiver drives — implemented
// by serve.Server. The receiver owns the socket; the server owns the state.
type ReplicaState interface {
	// ReplicaNextSeq is the next WAL sequence the standby expects.
	ReplicaNextSeq() uint64
	// ApplyReplicated appends one primary WAL record and applies it.
	ApplyReplicated(seq uint64, payload []byte) error
	// SyncReplica fsyncs replicated records — the ack barrier.
	SyncReplica() error
	// InstallReplicaSnapshot replaces standby state with a catch-up snapshot.
	InstallReplicaSnapshot(seq uint64, data []byte) error
	// ReplicaWritable reports whether replicated state is still accepted
	// (false once the standby has been promoted).
	ReplicaWritable() bool
}

// ReceiverConfig wires a replication receiver to its standby server.
type ReceiverConfig struct {
	// Addr is the TCP listen address for the replication stream.
	Addr string
	// State is the standby being fed (serve.Server).
	State ReplicaState
	// AckEvery bounds how many frames may be applied before a durability
	// barrier + ack, even while the stream stays busy (default 64).
	AckEvery int
	// Metrics receives serve_repl_* series (nil-safe).
	Metrics *obs.Registry
	// Injector arms the repl/ack fault point (nil disables).
	Injector *faultinject.Injector
	// Logger receives connection lifecycle events (nil for silent).
	Logger *slog.Logger
}

// Receiver is the standby half of WAL shipping: it accepts the primary's
// stream, appends frames verbatim through ReplicaState, and acks only after
// fsync — an ack is a durability promise, so the sync-then-ack order is the
// whole correctness story. One session at a time; a new connection bumps the
// old one (the primary reconnecting after a network blip must not be locked
// out by its own half-dead predecessor).
type Receiver struct {
	cfg ReceiverConfig
	ln  net.Listener

	mu     sync.Mutex
	cur    net.Conn
	closed bool
	wg     sync.WaitGroup
}

// NewReceiver starts listening. Call Stop to tear it down.
func NewReceiver(cfg ReceiverConfig) (*Receiver, error) {
	if cfg.State == nil {
		return nil, errors.New("cluster: receiver needs a replica state")
	}
	if cfg.AckEvery <= 0 {
		cfg.AckEvery = 64
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: receiver listen: %w", err)
	}
	r := &Receiver{cfg: cfg, ln: ln}
	r.wg.Add(1)
	go r.acceptLoop()
	return r, nil
}

// Addr is the bound listen address (useful with ":0").
func (r *Receiver) Addr() string { return r.ln.Addr().String() }

// Stop closes the listener and any live session.
func (r *Receiver) Stop() {
	r.mu.Lock()
	r.closed = true
	cur := r.cur
	r.mu.Unlock()
	r.ln.Close()
	if cur != nil {
		cur.Close()
	}
	r.wg.Wait()
}

func (r *Receiver) acceptLoop() {
	defer r.wg.Done()
	for {
		conn, err := r.ln.Accept()
		if err != nil {
			return // listener closed
		}
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			conn.Close()
			return
		}
		if r.cur != nil {
			r.cur.Close() // newest connection wins
		}
		r.cur = conn
		r.mu.Unlock()
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			err := r.session(conn)
			conn.Close()
			r.mu.Lock()
			if r.cur == conn {
				r.cur = nil
			}
			r.mu.Unlock()
			if err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && r.cfg.Logger != nil {
				r.cfg.Logger.Warn("replication session ended", "error", err.Error())
			}
		}()
	}
}

// session serves one primary connection.
func (r *Receiver) session(conn net.Conn) error {
	if err := readHello(conn); err != nil {
		return err
	}
	br := bufio.NewReaderSize(conn, 256<<10)
	bw := bufio.NewWriterSize(conn, 4<<10)
	if err := writeWelcome(conn, r.cfg.State.ReplicaNextSeq()); err != nil {
		return err
	}
	if r.cfg.Logger != nil {
		r.cfg.Logger.Info("replication accepted", "from", conn.RemoteAddr().String(),
			"next_seq", r.cfg.State.ReplicaNextSeq())
	}

	pending := 0 // frames applied since the last sync+ack
	// pendingStamp holds the newest lag stamp (proto.go) whose sequence the
	// standby has not applied yet; once applied it becomes the
	// serve_repl_apply_lag_seconds gauge.
	var pendingStamp replStamp
	observeApplyLag := func() {
		if pendingStamp.at.IsZero() {
			return
		}
		if r.cfg.State.ReplicaNextSeq()-1 < pendingStamp.seq {
			return
		}
		lag := time.Since(pendingStamp.at).Seconds()
		if lag < 0 {
			lag = 0
		}
		r.cfg.Metrics.Gauge("serve_repl_apply_lag_seconds").Set(lag)
		pendingStamp = replStamp{}
	}
	// ack syncs what has been applied and acknowledges it. The repl/ack
	// fault point swallows the ack (keeping the data — the primary's resend
	// after reconnect must dedup by seq, which AppendRecord's strict
	// next-seq check plus the handshake's resume position provide).
	ack := func() error {
		if pending > 0 {
			if err := r.cfg.State.SyncReplica(); err != nil {
				return fmt.Errorf("sync: %w", err)
			}
			pending = 0
		}
		if ferr := r.cfg.Injector.Err(faultinject.PointReplAck); ferr != nil {
			if r.cfg.Logger != nil {
				r.cfg.Logger.Warn("ack suppressed by fault injection", "error", ferr.Error())
			}
			return nil
		}
		return writeAckMsg(bw, r.cfg.State.ReplicaNextSeq()-1)
	}

	for {
		msg, err := br.ReadByte()
		if err != nil {
			return err
		}
		switch msg {
		case msgFrame:
			var lenBuf [4]byte
			if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
				return err
			}
			n := binary.LittleEndian.Uint32(lenBuf[:])
			if n > wal.MaxRecordBytes+64 {
				return fmt.Errorf("cluster: implausible frame length %d", n)
			}
			buf := make([]byte, n)
			if _, err := io.ReadFull(br, buf); err != nil {
				return err
			}
			seq, payload, err := wal.DecodeFrame(buf)
			if err != nil {
				return err
			}
			if !r.cfg.State.ReplicaWritable() {
				return errors.New("cluster: replica promoted; refusing frames")
			}
			if want := r.cfg.State.ReplicaNextSeq(); seq != want {
				// Out-of-order stream: drop the session and let the primary
				// re-handshake at our true position.
				return fmt.Errorf("cluster: frame seq %d, standby expects %d", seq, want)
			}
			if err := r.cfg.State.ApplyReplicated(seq, payload); err != nil {
				return err
			}
			r.cfg.Metrics.Counter("serve_repl_frames_received_total").Inc()
			pending++
			observeApplyLag()
			// Ack when the pipe drains (the primary is waiting) or the
			// un-synced batch is getting long.
			if br.Buffered() == 0 || pending >= r.cfg.AckEvery {
				if err := ack(); err != nil {
					return err
				}
			}
		case msgSnapshot:
			var hdr [12]byte
			if _, err := io.ReadFull(br, hdr[:]); err != nil {
				return err
			}
			seq := binary.LittleEndian.Uint64(hdr[0:8])
			n := binary.LittleEndian.Uint32(hdr[8:12])
			if n > maxSnapshotBytes {
				return fmt.Errorf("cluster: implausible snapshot length %d", n)
			}
			// Grow as bytes arrive: a forged header must not cost an n-byte
			// allocation before the first snapshot byte shows up.
			var data bytes.Buffer
			if got, err := io.CopyN(&data, br, int64(n)); err != nil {
				if err == io.EOF && got > 0 {
					err = io.ErrUnexpectedEOF // a torn snapshot is not a clean close
				}
				return err
			}
			if !r.cfg.State.ReplicaWritable() {
				return errors.New("cluster: replica promoted; refusing snapshot")
			}
			if err := r.cfg.State.InstallReplicaSnapshot(seq, data.Bytes()); err != nil {
				return err
			}
			r.cfg.Metrics.Counter("serve_repl_snapshots_received_total").Inc()
			pending = 0 // install is durable on its own
			observeApplyLag()
			if err := ack(); err != nil {
				return err
			}
		case msgPing:
			seq, nano, err := readPingPayload(br)
			if err != nil {
				return err
			}
			// Keep the newest stamp; if its sequence is already applied the
			// lag gauge updates immediately (idle stream), otherwise it waits
			// for the frame that covers it.
			pendingStamp = replStamp{seq: seq, at: time.Unix(0, nano)}
			observeApplyLag()
			if err := ack(); err != nil {
				return err
			}
		default:
			return fmt.Errorf("cluster: unknown replication message %q", msg)
		}
	}
}
