// Package load implements the overload-resilience primitives shared by the
// serving and cluster layers: a bounded admission controller with
// token-bucket rate limiting and explicit load shedding (Controller), a
// three-state circuit breaker (Breaker), and retry with jittered
// exponential backoff (Retry).
//
// The design goal is shed-don't-collapse. Under a burst the server keeps a
// bounded amount of work in flight plus a bounded wait queue and rejects
// everything beyond that immediately with a typed ShedError the HTTP layer
// maps to 429 + Retry-After — latency for admitted requests stays bounded
// because the queue cannot grow without bound. Every policy decision is
// observable through an obs.Registry (load_shed_total, load_queue_depth,
// breaker_state, …), and everything is deterministic under test: clocks and
// sleeps are injectable, jitter is seeded.
package load

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"github.com/cascade-ml/cascade/internal/obs"
)

// Shed reasons, matched with errors.Is through ShedError.
var (
	// ErrQueueFull means the wait queue behind the inflight limit is full.
	ErrQueueFull = errors.New("load: admission queue full")
	// ErrRateLimited means the token bucket is empty.
	ErrRateLimited = errors.New("load: rate limited")
)

// DefaultRetryAfter is the retry hint for queue-full sheds, where (unlike
// rate-limit sheds) there is no token-accrual time to compute.
const DefaultRetryAfter = time.Second

// ShedError reports a shed request together with a hint for when the
// client should retry (the Retry-After header value).
type ShedError struct {
	Reason     error
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("%v (retry after %s)", e.Reason, e.RetryAfter)
}

func (e *ShedError) Unwrap() error { return e.Reason }

// Limits bounds the work a Controller admits. Zero fields take defaults.
type Limits struct {
	// MaxInflight is the number of concurrently admitted requests
	// (default 16).
	MaxInflight int
	// QueueDepth is how many callers may wait behind the inflight limit
	// before further arrivals are shed (default 4×MaxInflight).
	QueueDepth int
	// Rate is the sustained admission rate in requests/second through the
	// token bucket; 0 disables rate limiting.
	Rate float64
	// Burst is the token-bucket capacity (default max(Rate, 1)).
	Burst float64
}

func (l *Limits) fillDefaults() {
	if l.MaxInflight <= 0 {
		l.MaxInflight = 16
	}
	if l.QueueDepth <= 0 {
		l.QueueDepth = 4 * l.MaxInflight
	}
	if l.Burst <= 0 {
		l.Burst = math.Max(l.Rate, 1)
	}
}

// Class is an admission priority. Under saturation low-class work is shed
// first: it sees only half the wait queue, so interactive traffic (scoring)
// keeps queue headroom that bulk traffic (ingest) cannot consume.
type Class int

// Admission classes.
const (
	ClassHigh Class = iota
	ClassLow
)

// Controller is the admission gate in front of a bounded resource: a
// semaphore of MaxInflight slots, a bounded two-class priority wait queue,
// and an optional token bucket. A nil Controller admits everything (call
// sites stay unconditional).
type Controller struct {
	lim     Limits
	sem     chan struct{}
	metrics *obs.Registry

	mu      sync.Mutex
	waiters int
	tokens  float64
	last    time.Time
	now     func() time.Time
}

// NewController builds an admission controller. reg may be nil (metrics
// become no-ops via the registry's nil-safety).
func NewController(lim Limits, reg *obs.Registry) *Controller {
	lim.fillDefaults()
	c := &Controller{
		lim:     lim,
		sem:     make(chan struct{}, lim.MaxInflight),
		metrics: reg,
		now:     time.Now,
	}
	c.tokens = lim.Burst
	c.last = c.now()
	return c
}

// SetClock injects a deterministic clock (tests). Not safe to call once the
// controller is in use.
func (c *Controller) SetClock(now func() time.Time) {
	c.now = now
	c.last = now()
}

// Limits reports the controller's effective (default-filled) limits.
func (c *Controller) Limits() Limits { return c.lim }

// Acquire admits a high-class caller or sheds it. On admission the returned
// release function MUST be called exactly once when the work finishes (it
// is idempotent). On shed the error is a *ShedError (queue full / rate
// limited) or the context's error when the caller's deadline expired while
// queued. Nil-safe: a nil controller admits everything.
func (c *Controller) Acquire(ctx context.Context) (release func(), err error) {
	return c.AcquireClass(ctx, ClassHigh)
}

// AcquireClass is Acquire with an explicit priority class.
func (c *Controller) AcquireClass(ctx context.Context, cl Class) (release func(), err error) {
	if c == nil {
		return func() {}, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err // dead on arrival: deadline already expired
	}
	if wait, limited := c.takeToken(); limited {
		c.metrics.Counter("load_rate_limited_total").Inc()
		c.metrics.Counter("load_shed_total").Inc()
		return nil, &ShedError{Reason: ErrRateLimited, RetryAfter: wait}
	}
	select {
	case c.sem <- struct{}{}:
		return c.admitted(), nil
	default:
	}
	// Inflight slots are busy: join the bounded wait queue or shed. Low-
	// class callers see only half the queue, so they shed first and the
	// remaining headroom stays reserved for high-class traffic.
	depth := c.lim.QueueDepth
	if cl == ClassLow {
		depth = (depth + 1) / 2
	}
	c.mu.Lock()
	if c.waiters >= depth {
		c.mu.Unlock()
		c.metrics.Counter("load_queue_full_total").Inc()
		c.metrics.Counter("load_shed_total").Inc()
		return nil, &ShedError{Reason: ErrQueueFull, RetryAfter: DefaultRetryAfter}
	}
	c.waiters++
	c.metrics.Gauge("load_queue_depth").Set(float64(c.waiters))
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		c.waiters--
		c.metrics.Gauge("load_queue_depth").Set(float64(c.waiters))
		c.mu.Unlock()
	}()
	select {
	case c.sem <- struct{}{}:
		return c.admitted(), nil
	case <-ctx.Done():
		c.metrics.Counter("load_deadline_shed_total").Inc()
		c.metrics.Counter("load_shed_total").Inc()
		return nil, ctx.Err()
	}
}

func (c *Controller) admitted() func() {
	c.metrics.Counter("load_admitted_total").Inc()
	c.metrics.Gauge("load_inflight").Set(float64(len(c.sem)))
	var once sync.Once
	return func() {
		once.Do(func() {
			<-c.sem
			c.metrics.Gauge("load_inflight").Set(float64(len(c.sem)))
		})
	}
}

// takeToken draws one token from the bucket; when empty it returns the time
// until the next token accrues and true.
func (c *Controller) takeToken() (time.Duration, bool) {
	if c.lim.Rate <= 0 {
		return 0, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	c.tokens = math.Min(c.lim.Burst, c.tokens+now.Sub(c.last).Seconds()*c.lim.Rate)
	c.last = now
	if c.tokens >= 1 {
		c.tokens--
		return 0, false
	}
	wait := time.Duration((1 - c.tokens) / c.lim.Rate * float64(time.Second))
	if wait < time.Millisecond {
		wait = time.Millisecond
	}
	return wait, true
}

// Saturated reports whether the wait queue is full — the readiness probe's
// definition of "overloaded". Nil-safe.
func (c *Controller) Saturated() bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.waiters >= c.lim.QueueDepth
}

// Inflight reports currently admitted requests. Nil-safe.
func (c *Controller) Inflight() int {
	if c == nil {
		return 0
	}
	return len(c.sem)
}

// QueueLen reports callers currently waiting for an inflight slot. Nil-safe.
func (c *Controller) QueueLen() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.waiters
}
