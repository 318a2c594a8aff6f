// Package faultinject is a deterministic fault-injection harness for the
// resilience test suite (and for manual chaos runs via cmd flags). Code
// under test declares named fault points and consults the injector at each;
// tests arm a point to fire on specific hit indices. With a nil injector —
// the production default — every call is a no-op, so call sites can be
// unconditional and cost one nil check.
//
// Determinism is the design goal: a point fires on its Nth evaluation, not
// on a timer or a random draw, so a failing recovery test replays exactly.
package faultinject

import (
	"errors"
	"sync"
	"time"
)

// Fault point names used across the repo. Keeping them here (rather than as
// loose strings at call sites) makes the harness greppable.
const (
	// PointTrainNaNGrad poisons one parameter gradient with NaN after the
	// backward pass (internal/train).
	PointTrainNaNGrad = "train/nan-grad"
	// PointTrainAbort aborts TrainEpochChecked at a batch boundary — the
	// kill-and-resume tests' stand-in for a crash (internal/train).
	PointTrainAbort = "train/abort"
	// PointCkptWrite / PointCkptSync / PointCkptRename fail the atomic
	// checkpoint writer at the corresponding syscall (internal/resilience).
	PointCkptWrite  = "ckpt/write"
	PointCkptSync   = "ckpt/sync"
	PointCkptRename = "ckpt/rename"
	// PointServeSlowScore stalls the scoring critical section for the armed
	// delay (internal/serve) — drives deadline misses and breaker trips in
	// the chaos suite.
	PointServeSlowScore = "serve/slow-score"
	// PointServeRefuse makes the fresh scoring path refuse a request
	// outright, as a crashed upstream would (internal/serve).
	PointServeRefuse = "serve/refuse"
	// PointWALWrite fails a WAL record append after a deliberate short
	// write, leaving a torn frame on disk — the recovery path must truncate
	// it (internal/wal).
	PointWALWrite = "wal/write"
	// PointWALSync fails the WAL fsync, the way a dying disk surfaces: data
	// accepted by the kernel but durability refused (internal/wal).
	PointWALSync = "wal/sync"
	// PointWALRotate fails segment creation at rotation — the disk-full
	// case (internal/wal).
	PointWALRotate = "wal/rotate"
	// PointWALSnapshot fails the compaction snapshot write; the server must
	// keep serving (the log is still intact) and retry later
	// (internal/serve).
	PointWALSnapshot = "wal/snapshot"
	// PointWALTruncate fails segment retention after the compaction snapshot
	// is durable — the crash-window between snapshot rename and segment
	// delete; recovery must tolerate the surviving overlap (internal/wal).
	PointWALTruncate = "wal/truncate"
	// PointReplSend fails a replication frame write on the primary's sender,
	// forcing a reconnect + re-handshake (internal/cluster).
	PointReplSend = "repl/send"
	// PointReplAck suppresses a standby ack, driving the primary's
	// ack-timeout degradation path (internal/cluster).
	PointReplAck = "repl/ack"
	// PointProbeTimeout turns a router health probe into a timeout, the way
	// a hung primary looks from outside (internal/cluster).
	PointProbeTimeout = "probe/timeout"
	// PointPromote fails the router's standby-promotion request; failover
	// must retry, not wedge (internal/cluster).
	PointPromote = "promote"
)

// ErrInjected is the default error returned by firing points armed without
// an explicit error.
var ErrInjected = errors.New("faultinject: injected fault")

// arm is one armed fault point.
type arm struct {
	hits  int           // evaluations so far
	at    map[int]bool  // 1-based hit indices that fire; nil = every hit
	err   error         // error to return from Err-style points
	delay time.Duration // sleep duration for Sleep-style points
}

// Injector tracks armed fault points. The zero value and nil are inert; use
// New and Arm in tests. Safe for concurrent use (servers fire points
// from request goroutines).
type Injector struct {
	mu    sync.Mutex
	arms  map[string]*arm
	fired map[string]int
}

// New returns an empty injector (nothing armed — all points inert until
// Arm is called).
func New() *Injector { return &Injector{arms: map[string]*arm{}, fired: map[string]int{}} }

// Arm schedules point to fire on the given 1-based hit indices (every hit
// when none are given). Re-arming a point replaces its schedule.
func (i *Injector) Arm(point string, hits ...int) { i.arm(point, ErrInjected, 0, hits) }

// ArmErr is Arm with an explicit error for Err-consuming call sites.
func (i *Injector) ArmErr(point string, err error, hits ...int) { i.arm(point, err, 0, hits) }

// ArmDelay arms a Sleep-consuming point (a slow score) with its stall
// duration.
func (i *Injector) ArmDelay(point string, d time.Duration, hits ...int) {
	i.arm(point, ErrInjected, d, hits)
}

func (i *Injector) arm(point string, err error, d time.Duration, hits []int) {
	a := &arm{err: err, delay: d}
	if len(hits) > 0 {
		a.at = make(map[int]bool, len(hits))
		for _, h := range hits {
			a.at[h] = true
		}
	}
	i.mu.Lock()
	i.arms[point] = a
	i.mu.Unlock()
}

// Fire evaluates point once and reports whether it fires this hit. Nil-safe.
func (i *Injector) Fire(point string) bool { return i.Err(point) != nil }

// Err evaluates point once; when it fires, the armed error is returned
// (ErrInjected by default). Nil-safe: a nil injector never fires.
func (i *Injector) Err(point string) error {
	a, fires := i.eval(point)
	if !fires {
		return nil
	}
	return a.err
}

// Sleep evaluates point once and, when it fires, blocks for the armed
// delay. Returns whether it fired. Nil-safe.
func (i *Injector) Sleep(point string) bool {
	a, fires := i.eval(point)
	if !fires {
		return false
	}
	if a.delay > 0 {
		time.Sleep(a.delay)
	}
	return true
}

func (i *Injector) eval(point string) (*arm, bool) {
	if i == nil {
		return nil, false
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	a, ok := i.arms[point]
	if !ok {
		return nil, false
	}
	a.hits++
	if a.at != nil && !a.at[a.hits] {
		return nil, false
	}
	i.fired[point]++
	return a, true
}

// Fired reports how many times point actually fired (tests assert recovery
// paths really ran). Nil-safe.
func (i *Injector) Fired(point string) int {
	if i == nil {
		return 0
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.fired[point]
}
