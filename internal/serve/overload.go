package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"

	"github.com/cascade-ml/cascade/internal/load"
	"github.com/cascade-ml/cascade/internal/resilience/faultinject"
)

// Overload handling (see DESIGN.md §10). The admission controller bounds
// work in flight plus a small wait queue and sheds the rest with
// 429 + Retry-After, and a circuit breaker watches the scoring path for
// deadline misses: while it is open, or when a request is refused, /score
// answers 503 + Retry-After without touching the model. A cluster's stale
// answer is the router's fallback to the shard's standby.

// withDeadline applies the client's per-request deadline (the
// X-Request-Timeout-Ms header) to the request context, so it bounds both
// the queue wait and the scoring work.
func (s *Server) withDeadline(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if ms := r.Header.Get("X-Request-Timeout-Ms"); ms != "" {
			if v, err := strconv.Atoi(ms); err == nil && v > 0 {
				ctx, cancel := context.WithTimeout(r.Context(), time.Duration(v)*time.Millisecond)
				defer cancel()
				r = r.WithContext(ctx)
			}
		}
		next(w, r)
	}
}

// admitted gates a handler behind the admission controller. Admitted
// requests run with a release hook; shed ones never touch the model.
func (s *Server) admitted(cl load.Class, next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		release, err := s.admit.AcquireClass(r.Context(), cl)
		if err != nil {
			shed(w, err)
			return
		}
		defer release()
		next(w, r)
	}
}

// shed turns an admission failure into a response: 429 + Retry-After for
// queue-full and rate-limit sheds, 503 when the caller's own deadline
// expired while queued.
func shed(w http.ResponseWriter, err error) {
	var se *load.ShedError
	if !errors.As(err, &se) {
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, "deadline expired while queued: %v", err)
		return
	}
	secs := int((se.RetryAfter + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	httpError(w, http.StatusTooManyRequests, "overloaded: %v", se.Reason)
}

// scoreUnavailable answers a /score the fresh path cannot take (refused,
// breaker open, or deadline missed) with 503 + Retry-After.
func scoreUnavailable(w http.ResponseWriter) {
	w.Header().Set("Retry-After", "1")
	httpError(w, http.StatusServiceUnavailable, "scoring unavailable")
}

// scoreFresh runs the read-only scoring cycle on the live model under its
// lock, honoring the request deadline: expired before the lock → never
// touch the model; expired during scoring (e.g. an injected slow score) →
// report failure so the breaker sees the miss.
func (s *Server) scoreFresh(ctx context.Context, req *scoreRequest) ([]float32, error) {
	s.mu.Lock()
	if err := deadlineErr(ctx); err != nil {
		s.mu.Unlock()
		return nil, err
	}
	s.inj.Sleep(faultinject.PointServeSlowScore)
	at := req.Time
	if at < s.lastTime {
		at = s.lastTime
	}
	scores := scorePairs(s.model, s.predictor, req.Pairs, at)
	s.scored += int64(len(req.Pairs))
	s.mu.Unlock()
	if err := deadlineErr(ctx); err != nil {
		return nil, err
	}
	return scores, nil
}

// deadlineErr is ctx.Err() that also reads the clock: ctx.Err() turns non-nil
// only once the context's timer goroutine has run, so a request woken in the
// same scheduler pass as its expired deadline would otherwise still see nil
// and be answered as if on time.
func deadlineErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d, ok := ctx.Deadline(); ok && !d.After(time.Now()) {
		return context.DeadlineExceeded
	}
	return nil
}

// handleHealthz is the liveness probe: the process is up and serving HTTP.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{"ok": true, "uptime_seconds": time.Since(s.started).Seconds()})
}

// ReadyStatus is the structured /readyz body: the status code still carries
// the ready/not-ready contract (200/503, unchanged), but the body now names
// each degradation cause so the router and the chaos harness can dispatch on
// specific reasons instead of parsing a prose line.
type ReadyStatus struct {
	Ready   bool     `json:"ready"`
	Reasons []string `json:"reasons"`
	Role    string   `json:"role"`
	// ReplLagRecords is how many committed records the standby has yet to
	// ack (primaries with replication only; 0 otherwise). Informational —
	// it never flips Ready by itself until it crosses LagBound.
	ReplLagRecords uint64 `json:"repl_lag_records"`
}

// Readyz evaluates the readiness reasons without HTTP (shared by the
// handler and tests).
func (s *Server) Readyz() ReadyStatus {
	reasons := []string{} // never null on the wire
	if s.draining.Load() {
		reasons = append(reasons, "draining")
	}
	if s.admit.Saturated() {
		reasons = append(reasons, "queue full")
	}
	if s.breaker.State() == load.BreakerOpen {
		reasons = append(reasons, "breaker open")
	}
	if s.walBroken.Load() {
		reasons = append(reasons, "wal broken")
	}
	// A primary with a dead or lagging replication stream is still serving,
	// but its durability promise is degraded — surface it so the operator
	// (and the router's stats) can see the exposure window.
	var replLag uint64
	if Role(s.role.Load()) == RolePrimary && s.repl != nil {
		if !s.repl.Connected() {
			reasons = append(reasons, "standby disconnected")
		} else {
			s.mu.Lock()
			if s.wlog != nil {
				if committed := s.wlog.CommittedSeq(); committed > s.repl.AckedSeq() {
					replLag = committed - s.repl.AckedSeq()
				}
			}
			bound := s.replOpts.LagBound
			s.mu.Unlock()
			if bound > 0 && replLag > bound {
				reasons = append(reasons, "standby lagging")
			}
		}
	}
	return ReadyStatus{
		Ready: len(reasons) == 0, Reasons: reasons,
		Role: Role(s.role.Load()).String(), ReplLagRecords: replLag,
	}
}

// handleReadyz is the readiness probe: 503 while draining, while the wait
// queue is full, while the scoring breaker is open, or while the WAL is
// broken — the states in which a load balancer should route traffic
// elsewhere — with the structured body above in both directions.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	st := s.Readyz()
	if !st.Ready {
		s.metrics.Gauge("serve_ready").Set(0)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(st)
		return
	}
	s.metrics.Gauge("serve_ready").Set(1)
	writeJSON(w, st)
}

// StartDrain flips the server to not-ready. RunGraceful's onDrain hook
// calls it when the stop signal arrives, so load balancers watching
// /readyz stop routing here while in-flight requests finish.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Draining reports whether a drain has started.
func (s *Server) Draining() bool { return s.draining.Load() }
