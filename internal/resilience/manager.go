package resilience

import (
	"errors"
	"fmt"
	"os"

	"github.com/cascade-ml/cascade/internal/obs"
	"github.com/cascade-ml/cascade/internal/resilience/faultinject"
	"github.com/cascade-ml/cascade/internal/train"
)

// Options configures a Manager.
type Options struct {
	// Dir is the checkpoint directory ("" keeps checkpoints in memory only —
	// rollback still works, resume-from-disk does not).
	Dir string
	// EveryBatches is the mid-epoch checkpoint cadence (≤ 0: epoch
	// boundaries only).
	EveryBatches int
	// Keep bounds on-disk retention to the newest N checkpoints (default 3).
	Keep int
	// Health configures the trainer's numerical-health monitor; zero value
	// enables it with defaults. Set Health.Enabled explicitly to tune.
	Health train.HealthConfig
	// MaxRollbacks bounds consecutive rollbacks before the run aborts with
	// diagnostics (default 3). A cleanly completed epoch resets the count.
	MaxRollbacks int
	// LRBackoff scales the learning rate down on every rollback (default
	// 0.5).
	LRBackoff float64
	// Obs receives recovery metrics (optional).
	Obs *obs.Registry
	// Recorder, when non-nil, dumps its flight ring (the last N batch span
	// trees plus a metrics snapshot) to disk on every health rollback, so the
	// offending batch's timeline survives the restore.
	Recorder *obs.FlightRecorder
	// Injector, when non-nil, is installed into the trainer and consulted by
	// the checkpoint writer (tests and chaos runs).
	Injector *faultinject.Injector
}

func (o *Options) fillDefaults() {
	if o.Keep <= 0 {
		o.Keep = 3
	}
	if o.MaxRollbacks <= 0 {
		o.MaxRollbacks = 3
	}
	if o.LRBackoff <= 0 || o.LRBackoff >= 1 {
		o.LRBackoff = 0.5
	}
}

// Manager drives fault-tolerant training: it installs the checkpoint cadence
// and health monitor into a trainer, persists checkpoints crash-safely,
// resumes from disk, and turns health violations into bounded
// rollback-with-backoff retries.
type Manager struct {
	opt Options
	tr  *train.Trainer

	seq       int // next on-disk sequence number
	lastGood  *train.CheckpointState
	completed int // epochs fully trained (advances on clean TrainEpochChecked returns)
	rollbacks int // consecutive rollbacks since the last clean epoch
}

// NewManager wires a trainer for fault tolerance: the checkpoint cadence,
// health monitor and fault injector from opt are installed into the trainer,
// and any checkpoints already in opt.Dir extend the sequence (call Resume to
// actually load one).
func NewManager(tr *train.Trainer, opt Options) (*Manager, error) {
	opt.fillDefaults()
	m := &Manager{opt: opt, tr: tr, completed: tr.Epoch()}
	if opt.Dir != "" {
		if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("resilience: creating checkpoint dir: %w", err)
		}
		// Continue the sequence past any checkpoints already present.
		names, err := listCheckpoints(opt.Dir)
		if err != nil {
			return nil, err
		}
		if len(names) > 0 {
			last, _ := checkpointSeq(names[len(names)-1])
			m.seq = last + 1
		}
	}
	tr.SetHealth(opt.Health)
	tr.SetInjector(opt.Injector)
	tr.SetCheckpointCadence(opt.EveryBatches, m.onCheckpoint)
	return m, nil
}

// onCheckpoint is the trainer's cadence hook: retain the snapshot in memory
// as the rollback target, then persist it. Write failures are counted but
// deliberately not fatal — losing a checkpoint must not kill the
// training run, and the atomic writer guarantees no partial file is visible.
func (m *Manager) onCheckpoint(c *train.CheckpointState) error {
	m.lastGood = c
	m.persist(c)
	return nil
}

func (m *Manager) persist(c *train.CheckpointState) {
	if m.opt.Dir == "" {
		return
	}
	if _, err := WriteSnapshotFile(m.opt.Dir, m.seq, c, m.opt.Injector); err != nil {
		m.count("resilience_checkpoint_write_failures_total")
		return
	}
	m.seq++
	m.count("resilience_checkpoints_written_total")
	// A failed prune leaves extra checkpoints behind, never a missing one.
	_ = PruneCheckpoints(m.opt.Dir, m.opt.Keep)
}

// Resume loads the newest checkpoint from the directory into the trainer.
// Returns false when the directory holds no checkpoint (fresh start).
func (m *Manager) Resume() (bool, error) {
	if m.opt.Dir == "" {
		return false, nil
	}
	path, err := LatestCheckpoint(m.opt.Dir)
	if err != nil || path == "" {
		return false, err
	}
	c, err := ReadSnapshotFile(path)
	if err != nil {
		return false, err
	}
	if err := m.tr.RestoreCheckpoint(c); err != nil {
		return false, err
	}
	m.lastGood = c
	m.completed = c.Epoch
	if c.Batch >= 0 {
		m.completed = c.Epoch - 1 // mid-epoch: that epoch still needs finishing
	}
	m.count("resilience_checkpoints_restored_total")
	return true, nil
}

// Run trains until `epochs` epochs have completed (counting epochs finished
// before a Resume), rolling back to the last good checkpoint with
// learning-rate backoff whenever the health monitor aborts an epoch. After
// MaxRollbacks consecutive rollbacks — or a health error with no checkpoint
// to roll back to — it gives up with diagnostics. Non-health errors (fault
// injection aborts, checkpoint-hook failures) propagate immediately.
func (m *Manager) Run(epochs int) ([]train.EpochStats, error) {
	var out []train.EpochStats
	for m.completed < epochs {
		st, err := m.tr.TrainEpochChecked()
		if err == nil {
			out = append(out, st)
			m.completed = st.Epoch
			m.rollbacks = 0
			// Epoch-boundary checkpoint: the natural resume point between
			// epochs, and the rollback target for the next one.
			if c, cerr := m.tr.CaptureCheckpoint(); cerr == nil {
				m.lastGood = c
				m.persist(c)
			}
			continue
		}
		var he *train.HealthError
		if !errors.As(err, &he) {
			return out, err
		}
		// Dump the flight ring before restoring: the offending batch's span
		// tree is still in the ring, and the metrics snapshot still reflects
		// the pre-rollback scheduler state (ABS, filter counters).
		if m.opt.Recorder != nil {
			if _, derr := m.opt.Recorder.Dump("health_rollback"); derr == nil {
				m.count("resilience_flight_dumps_total")
			}
		}
		if m.lastGood == nil {
			return out, fmt.Errorf("resilience: %w; no checkpoint to roll back to", he)
		}
		if m.rollbacks >= m.opt.MaxRollbacks {
			return out, fmt.Errorf("resilience: giving up after %d rollbacks; last violation: %w (lr=%g)",
				m.rollbacks, he, m.tr.Optimizer().LR)
		}
		if rerr := m.tr.RestoreCheckpoint(m.lastGood); rerr != nil {
			return out, fmt.Errorf("resilience: rollback failed: %w", rerr)
		}
		m.rollbacks++
		// Backoff compounds across consecutive rollbacks: the restore put the
		// checkpointed LR back, so scale by backoff^rollbacks.
		lr := float64(m.tr.Optimizer().LR)
		for i := 0; i < m.rollbacks; i++ {
			lr *= m.opt.LRBackoff
		}
		m.tr.Optimizer().LR = float32(lr)
		m.count("resilience_rollbacks_total")
	}
	return out, nil
}

// Rollbacks reports consecutive rollbacks since the last clean epoch.
func (m *Manager) Rollbacks() int { return m.rollbacks }

// LastGood exposes the current rollback target (nil before any checkpoint).
func (m *Manager) LastGood() *train.CheckpointState { return m.lastGood }

func (m *Manager) count(name string) {
	if m.opt.Obs != nil {
		m.opt.Obs.Counter(name).Inc()
	}
}
