package train

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"github.com/cascade-ml/cascade/internal/batching"
	"github.com/cascade-ml/cascade/internal/memstore"
	"github.com/cascade-ml/cascade/internal/models"
	"github.com/cascade-ml/cascade/internal/nn"
	"github.com/cascade-ml/cascade/internal/resilience/faultinject"
)

// countingSource wraps the trainer's deterministic rand source and counts
// draws, making the RNG position serializable: a checkpoint records the draw
// count, and restore replays that many draws from a fresh seed. Each Int63 or
// Uint64 advances the underlying rngSource by exactly one step, so replaying
// with Uint64 reproduces the state regardless of which methods originally
// consumed the stream. Not itself goroutine-safe — the trainer's prefetch
// pipeline already hands the rng to exactly one goroutine at a time.
type countingSource struct {
	src   rand.Source64
	draws uint64
}

func newCountingSource(seed int64) *countingSource {
	return &countingSource{src: rand.NewSource(seed).(rand.Source64)}
}

func (c *countingSource) Int63() int64 { c.draws++; return c.src.Int63() }

func (c *countingSource) Uint64() uint64 { c.draws++; return c.src.Uint64() }

func (c *countingSource) Seed(seed int64) {
	c.src = rand.NewSource(seed).(rand.Source64)
	c.draws = 0
}

// seekTo re-seeds and discards draws until the stream position matches a
// checkpointed count.
func (c *countingSource) seekTo(seed int64, draws uint64) {
	c.Seed(seed)
	for c.draws < draws {
		c.Uint64()
	}
}

// CheckpointState is the trainer's full training state at a safe batch
// boundary — everything needed to resume bitwise-identically: weights (model
// + predictor head), optimizer moments, the model's stream state (node
// memories, temporal adjacency, pending messages, sampling RNG), the
// scheduler's walk/adaptation state, the trainer RNG position, and the
// epoch-in-progress accumulators. internal/resilience wraps it in a
// checksummed file format; every field is exported for gob.
type CheckpointState struct {
	// Epoch is the 1-based epoch the state belongs to. Batch counts batches
	// completed within it; -1 marks an epoch-boundary checkpoint (the epoch
	// finished, the next TrainEpoch starts fresh).
	Epoch int
	Batch int
	// RNGDraws is the trainer RNG's absolute stream position since Seed.
	RNGDraws uint64
	// Weights is an nn.SaveParams blob over model + predictor parameters.
	Weights []byte
	// Optimizer carries Adam's moments, step count and (possibly backed-off)
	// learning rate.
	Optimizer *nn.AdamCheckpoint
	// Stream is the model's stream state.
	Stream *models.StreamCheckpoint
	// SchedName guards against resuming under a different batching policy;
	// Sched is the scheduler's batching.Checkpointable payload (nil when the
	// scheduler does not support mid-epoch state capture).
	SchedName string
	Sched     []byte
	// Epoch-in-progress accumulators (meaningless when Batch == -1).
	LossSum      float64
	EventSum     int
	OccSum       float64
	DeviceTimeNs int64
	// Ledger is the bounded-staleness ledger state (nil when the trainer
	// runs with Staleness == 0). It is serialized rather than flushed at
	// the boundary: a restored trainer owes the deferred nodes exactly the
	// rounds the original did, so the resumed apply schedule — and with it
	// every number downstream — matches the uninterrupted run
	// (TestStalenessKillAndResume).
	Ledger *memstore.LedgerCheckpoint
}

// checkpointParams is the trainer's full parameter list with the predictor
// head namespaced (mirroring the facade's SaveModel convention — model and
// head share layer names otherwise) and repeated in-model layer names
// disambiguated (TGAT/DySAT stack identical layers).
func (t *Trainer) checkpointParams() []nn.Param {
	head := t.predictor.Params()
	prefixed := make([]nn.Param, len(head))
	for i, p := range head {
		prefixed[i] = nn.Param{Name: "predictor." + p.Name, T: p.T}
	}
	return nn.UniqueNames(append(t.cfg.Model.Params(), prefixed...))
}

// CaptureCheckpoint snapshots the full training state at an epoch boundary
// (between TrainEpoch calls). Mid-epoch snapshots are produced by the
// checkpoint hook (SetCheckpointCadence) at safe batch boundaries instead.
func (t *Trainer) CaptureCheckpoint() (*CheckpointState, error) {
	return t.capture(-1, 0, 0, 0, 0)
}

func (t *Trainer) capture(batch int, lossSum float64, eventSum int, occSum float64, deviceTime time.Duration) (*CheckpointState, error) {
	var w bytes.Buffer
	if err := nn.SaveParams(&w, t.checkpointParams()); err != nil {
		return nil, fmt.Errorf("train: serializing weights: %w", err)
	}
	stream, err := models.CheckpointStream(t.cfg.Model)
	if err != nil {
		return nil, err
	}
	c := &CheckpointState{
		Epoch:        t.epoch,
		Batch:        batch,
		RNGDraws:     t.rngSrc.draws,
		Weights:      w.Bytes(),
		Optimizer:    t.opt.Checkpoint(),
		Stream:       stream,
		SchedName:    t.cfg.Sched.Name(),
		LossSum:      lossSum,
		EventSum:     eventSum,
		OccSum:       occSum,
		DeviceTimeNs: int64(deviceTime),
	}
	if ck, ok := t.cfg.Sched.(batching.Checkpointable); ok {
		if c.Sched, err = ck.CheckpointState(); err != nil {
			return nil, fmt.Errorf("train: serializing scheduler state: %w", err)
		}
	}
	if t.ledger != nil {
		c.Ledger = t.ledger.Checkpoint()
	}
	if t.cfg.Obs != nil {
		t.cfg.Obs.Counter("train_checkpoint_captures_total").Inc()
	}
	return c, nil
}

// RestoreCheckpoint reinstates a CheckpointState into a trainer built with
// the same Config (model kind and dimensions, scheduler policy, dataset,
// seed). A mid-epoch state (Batch ≥ 0) arms the next TrainEpoch call to
// continue that epoch from the captured boundary instead of resetting.
func (t *Trainer) RestoreCheckpoint(c *CheckpointState) error {
	if c == nil {
		return fmt.Errorf("train: nil checkpoint")
	}
	if c.SchedName != t.cfg.Sched.Name() {
		return fmt.Errorf("train: checkpoint was taken under scheduler %q, trainer runs %q", c.SchedName, t.cfg.Sched.Name())
	}
	if err := nn.LoadParams(bytes.NewReader(c.Weights), t.checkpointParams()); err != nil {
		return fmt.Errorf("train: restoring weights: %w", err)
	}
	if err := t.opt.RestoreCheckpoint(c.Optimizer); err != nil {
		return err
	}
	if err := models.RestoreStream(t.cfg.Model, c.Stream); err != nil {
		return err
	}
	if c.Sched != nil {
		ck, ok := t.cfg.Sched.(batching.Checkpointable)
		if !ok {
			return fmt.Errorf("train: checkpoint carries %s scheduler state but the scheduler cannot restore it", c.SchedName)
		}
		if err := ck.RestoreCheckpointState(c.Sched); err != nil {
			return err
		}
	}
	if t.ledger != nil {
		if c.Ledger != nil {
			if err := t.ledger.RestoreCheckpoint(c.Ledger); err != nil {
				return err
			}
		} else {
			// The checkpoint was taken without a staleness budget: nothing
			// was deferred at the boundary, so the ledger starts clean.
			t.ledger.Reset()
		}
	}
	t.rngSrc.seekTo(t.cfg.Seed, c.RNGDraws)
	t.epoch = c.Epoch
	t.resetHealthWindow()
	if c.Batch >= 0 {
		t.resume = &resumePoint{
			batches:    c.Batch,
			lossSum:    c.LossSum,
			eventSum:   c.EventSum,
			occSum:     c.OccSum,
			deviceTime: time.Duration(c.DeviceTimeNs),
		}
	} else {
		t.resume = nil
	}
	if t.cfg.Obs != nil {
		t.cfg.Obs.Counter("train_checkpoint_restores_total").Inc()
	}
	return nil
}

// resumePoint carries a restored mid-epoch position into the next
// TrainEpoch call.
type resumePoint struct {
	batches    int
	lossSum    float64
	eventSum   int
	occSum     float64
	deviceTime time.Duration
}

// SetCheckpointCadence arranges for hook to receive a full-state checkpoint
// every everyBatches batches, taken at safe batch boundaries (optimizer
// stepped, messages generated, scheduler fed, tape freed, no prefetch in
// flight — the trainer serializes the pipeline at checkpoint boundaries,
// which is result-identical to the pipelined schedule). A hook error aborts
// the epoch; hooks that tolerate write failures should swallow them and
// return nil. Mid-epoch checkpoints additionally require the scheduler to
// implement batching.Checkpointable; otherwise the cadence is ignored and
// only epoch-boundary captures (CaptureCheckpoint) are possible.
// everyBatches ≤ 0 or a nil hook disables the cadence.
func (t *Trainer) SetCheckpointCadence(everyBatches int, hook func(*CheckpointState) error) {
	if everyBatches <= 0 || hook == nil {
		t.ckptEvery, t.ckptHook = 0, nil
		return
	}
	t.ckptEvery, t.ckptHook = everyBatches, hook
}

// SetInjector installs a fault injector (tests and chaos runs); nil disables
// injection.
func (t *Trainer) SetInjector(inj *faultinject.Injector) { t.inj = inj }

// Epoch returns the number of completed (or in-progress, during a call)
// TrainEpoch invocations, adjusted by checkpoint restores.
func (t *Trainer) Epoch() int { return t.epoch }

// Optimizer exposes the Adam instance (the resilience manager reads and
// backs off its learning rate across rollbacks).
func (t *Trainer) Optimizer() *nn.Adam { return t.opt }
