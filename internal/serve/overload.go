package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/cascade-ml/cascade/internal/load"
	"github.com/cascade-ml/cascade/internal/models"
	"github.com/cascade-ml/cascade/internal/nn"
	"github.com/cascade-ml/cascade/internal/resilience/faultinject"
)

// Overload handling (see DESIGN.md §10). The admission controller bounds
// work in flight plus a small wait queue and sheds the rest with
// 429 + Retry-After; a circuit breaker watches the fresh scoring path for
// deadline misses; and an optional stale replica — an independent
// (model, predictor) pair with its own lock, refreshed from the live
// model's Snapshot on ingest — answers /score when the fresh path is
// saturated or broken. Serving slightly-stale node memories instead of
// failing is MSPipe's staleness argument applied to serving.

// staleScorer is the degraded scoring path's replica. Its weights must
// equal the live model's (serving never trains, so a construction-time copy
// stays valid); its stream state lags the live model by at most the refresh
// interval.
type staleScorer struct {
	mu        sync.Mutex
	model     models.TGNN
	predictor *nn.MLP
	lastTime  float64
	refreshed time.Time
	every     time.Duration
}

// refreshStale re-syncs the stale replica from the live model. Caller must
// hold s.mu (the snapshot must be consistent); the replica's own lock
// nests inside, never the reverse, so the two paths cannot deadlock.
func (s *Server) refreshStale() {
	st := s.stale
	if st == nil {
		return
	}
	now := time.Now()
	st.mu.Lock()
	if st.every > 0 && !st.refreshed.IsZero() && now.Sub(st.refreshed) < st.every {
		st.mu.Unlock()
		return
	}
	st.mu.Unlock()
	snap := s.model.Snapshot()
	st.mu.Lock()
	st.model.Restore(snap)
	st.lastTime = s.lastTime
	st.refreshed = now
	st.mu.Unlock()
	s.metrics.Counter("serve_stale_refresh_total").Inc()
}

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
			s.shed(w, r, cl, err)
			return
		}
		defer release()
		next(w, r)
	}
}

// shed turns an admission failure into a response: 429 + Retry-After for
// queue-full and rate-limit sheds, 503 when the caller's own deadline
// expired while queued — except that a saturated /score degrades to the
// stale replica when one is configured, because a slightly-stale answer
// beats no answer (rate-limit sheds still 429: the client exceeded its
// contract, staleness doesn't change that).
func (s *Server) shed(w http.ResponseWriter, r *http.Request, cl load.Class, err error) {
	var se *load.ShedError
	if !errors.As(err, &se) {
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, "deadline expired while queued: %v", err)
		return
	}
	if cl == load.ClassHigh && s.stale != nil && errors.Is(err, load.ErrQueueFull) {
		r.Body = http.MaxBytesReader(w, r.Body, MaxBodyBytes)
		var req scoreRequest
		if !decode(w, r, &req) {
			return
		}
		if !s.validPairs(w, &req) {
			return
		}
		s.degradedScore(w, &req)
		return
	}
	secs := int((se.RetryAfter + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	httpError(w, http.StatusTooManyRequests, "overloaded: %v", se.Reason)
}

// degradedScore answers from the stale replica (503 when none is
// configured). The response carries stale=true plus the snapshot age so
// clients can tell a degraded answer from a fresh one.
func (s *Server) degradedScore(w http.ResponseWriter, req *scoreRequest) {
	st := s.stale
	if st == nil {
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, "scoring unavailable and no stale replica configured")
		return
	}
	st.mu.Lock()
	at := req.Time
	if at < st.lastTime {
		at = st.lastTime
	}
	scores := scorePairs(st.model, st.predictor, req.Pairs, at)
	var age float64
	if !st.refreshed.IsZero() {
		age = time.Since(st.refreshed).Seconds()
	}
	st.mu.Unlock()
	s.metrics.Counter("serve_score_stale_total").Inc()
	s.metrics.Counter("serve_pairs_scored_total").Add(int64(len(req.Pairs)))
	writeJSON(w, map[string]any{"scores": scores, "stale": true, "stale_age_seconds": age})
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
