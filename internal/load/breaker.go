package load

import (
	"sync"
	"time"

	"github.com/cascade-ml/cascade/internal/obs"
)

// BreakerState is a circuit breaker's position.
type BreakerState int

// Breaker states. The numeric values are exported as the breaker's state
// gauge (0 = closed, 1 = open, 2 = half-open).
const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// BreakerConfig tunes a Breaker. Zero fields take defaults.
type BreakerConfig struct {
	// FailureThreshold is the consecutive-failure count that trips the
	// breaker open (default 5).
	FailureThreshold int
	// Cooldown is how long the breaker stays open before letting one probe
	// through half-open (default 5s).
	Cooldown time.Duration
	// Now injects a clock so tests can step the cooldown deterministically;
	// default time.Now.
	Now func() time.Time
	// Gauge names the obs state gauge (default "breaker_state").
	Gauge string
	// Obs receives the state gauge; nil disables.
	Obs *obs.Registry
	// OnOpen fires on every closed/half-open → open transition (trip). It
	// runs under the breaker's mutex, so it must be fast and must not call
	// back into this breaker. Typical use: flight-recorder dump.
	OnOpen func()
}

// Breaker is a three-state circuit breaker: Closed (all calls pass;
// FailureThreshold consecutive failures trip it), Open (calls refused until
// Cooldown elapses), HalfOpen (exactly one probe passes; its outcome closes
// or re-opens the breaker). A nil Breaker always allows.
type Breaker struct {
	cfg BreakerConfig

	mu       sync.Mutex
	state    BreakerState
	failures int
	openedAt time.Time
	probing  bool
}

// NewBreaker builds a breaker in the closed state.
func NewBreaker(cfg BreakerConfig) *Breaker {
	if cfg.FailureThreshold <= 0 {
		cfg.FailureThreshold = 5
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 5 * time.Second
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Gauge == "" {
		cfg.Gauge = "breaker_state"
	}
	b := &Breaker{cfg: cfg}
	b.export(BreakerClosed)
	return b
}

func (b *Breaker) export(s BreakerState) {
	b.state = s
	b.cfg.Obs.Gauge(b.cfg.Gauge).Set(float64(s))
}

// Allow reports whether a call may proceed, performing the open→half-open
// transition when the cooldown has elapsed. In half-open only one probe is
// admitted at a time. Nil-safe: a nil breaker always allows.
func (b *Breaker) Allow() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.cfg.Now().Sub(b.openedAt) < b.cfg.Cooldown {
			return false
		}
		b.export(BreakerHalfOpen)
		b.probing = true
		return true
	default: // half-open
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// RecordSuccess reports a successful call: closes a half-open breaker and
// clears the failure streak. Nil-safe.
func (b *Breaker) RecordSuccess() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures = 0
	b.probing = false
	if b.state != BreakerClosed {
		b.export(BreakerClosed)
	}
}

// RecordFailure reports a failed call: re-opens a half-open breaker
// immediately, trips a closed one at the failure threshold. Nil-safe.
func (b *Breaker) RecordFailure() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerHalfOpen:
		b.trip()
	case BreakerClosed:
		b.failures++
		if b.failures >= b.cfg.FailureThreshold {
			b.trip()
		}
	default: // already open (e.g. a straggler reporting) — restart cooldown
		b.openedAt = b.cfg.Now()
	}
}

// Trip forces the breaker open regardless of the failure count (used when
// the caller has out-of-band proof the dependency is down, e.g. the router's
// probe loop declaring a primary dead). Nil-safe.
func (b *Breaker) Trip() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.trip()
}

func (b *Breaker) trip() {
	wasOpen := b.state == BreakerOpen
	b.failures = 0
	b.probing = false
	b.openedAt = b.cfg.Now()
	b.export(BreakerOpen)
	if !wasOpen && b.cfg.OnOpen != nil {
		b.cfg.OnOpen()
	}
}

// State reports the breaker's stored position (no lazy transition — Allow
// performs those). Nil-safe: nil reads as closed.
func (b *Breaker) State() BreakerState {
	if b == nil {
		return BreakerClosed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
