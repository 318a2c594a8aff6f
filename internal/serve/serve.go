// Package serve exposes a trained TGNN as an online inference service — the
// deployment the paper's introduction motivates ("ensuring that these
// models can be deployed quickly and effectively in real-world scenarios"):
// events stream in, node memories stay fresh, and edge scores are served
// from the latest state.
//
// Endpoints (JSON over HTTP):
//
//	POST /ingest  {"events":[{"src":1,"dst":2,"time":42.5}]}  → {"ingested":N}
//	POST /score   {"pairs":[{"src":1,"dst":2}],"time":43}     → {"scores":[…]}
//	GET  /stats                                               → server counters
//	GET  /metrics                                             → Prometheus text format
//
// A single goroutine owns the model (TGNN state is not concurrent); requests
// serialize through a mutex. Ingested events apply the same BeginBatch /
// EndBatch cycle as training, so memories evolve exactly as during training.
// Scoring is read-only: it applies the pending messages, embeds, and then
// rolls back exactly the rows, stamps, queue and RNG word that cycle wrote
// (models.EmbedScoped), so a /score request never perturbs the model and
// costs O(nodes touched), not O(all state).
//
// Request hardening: bodies are capped at MaxBodyBytes (413 beyond), and a
// present Content-Type must be a JSON media type (415 otherwise). Every
// route is wrapped in metrics middleware recording request counts, error
// counts and latency histograms into the server's obs.Registry.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"mime"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/cascade-ml/cascade/internal/load"
	"github.com/cascade-ml/cascade/internal/models"
	"github.com/cascade-ml/cascade/internal/nn"
	"github.com/cascade-ml/cascade/internal/obs"
	"github.com/cascade-ml/cascade/internal/resilience/faultinject"
	"github.com/cascade-ml/cascade/internal/tensor"
	"github.com/cascade-ml/cascade/internal/wal"
)

// MaxBodyBytes caps request bodies; larger requests get 413. One million
// float-bearing JSON events sit far below this, so the cap only stops
// abuse, not legitimate traffic.
const MaxBodyBytes = 1 << 20

// Server wraps a trained model + predictor head for online use.
type Server struct {
	mu        sync.Mutex
	model     models.TGNN
	predictor *nn.MLP
	numNodes  int
	lastTime  float64

	ingested int64
	scored   int64
	started  time.Time

	metrics  *obs.Registry
	tracer   *obs.Tracer
	recorder *obs.FlightRecorder
	logger   *slog.Logger

	// Overload resilience (see overload.go). All optional: nil admission
	// controller, breaker and injector are inert.
	limits     *load.Limits
	breakerCfg *load.BreakerConfig
	admit      *load.Controller
	breaker    *load.Breaker
	inj        *faultinject.Injector
	draining   atomic.Bool

	// Durability (see durable.go). walCfg nil disables the subsystem;
	// appliedSeq and sinceCompact are guarded by mu, walBroken flips the
	// ingest path read-only on the first log failure.
	walCfg       *WALConfig
	wlog         *wal.Log
	walBroken    atomic.Bool
	appliedSeq   uint64
	sinceCompact int

	// Replication (see repl.go). role is Solo unless WithStandby or
	// SetReplicator say otherwise; lastBid (guarded by mu) dedups
	// router-retried batches; repl/replOpts are set once before serving.
	role     atomic.Int32
	repl     Replicator
	replOpts ReplOptions
	lastBid  uint64
}

// Option customizes a Server.
type Option func(*Server)

// WithRegistry uses an external metrics registry (e.g. one shared with a
// trainer) instead of a private one.
func WithRegistry(r *obs.Registry) Option {
	return func(s *Server) { s.metrics = r }
}

// WithLimits puts an admission controller in front of the POST routes:
// at most MaxInflight requests run, QueueDepth wait, and the rest are shed
// with 429 + Retry-After (scoring gets the full queue, ingest half — see
// load.Class).
func WithLimits(lim load.Limits) Option {
	return func(s *Server) { s.limits = &lim }
}

// WithBreaker protects the fresh scoring path with a circuit breaker fed
// by request-deadline misses; while open, /score answers 503 + Retry-After.
// The breaker state is exported as the `breaker_state` gauge.
func WithBreaker(cfg load.BreakerConfig) Option {
	return func(s *Server) { s.breakerCfg = &cfg }
}

// WithTracer turns every instrumented request into a span (routes land in
// the "other" lane). Nil disables request spans.
func WithTracer(tr *obs.Tracer) Option {
	return func(s *Server) { s.tracer = tr }
}

// WithFlightRecorder attaches the flight recorder: a breaker open
// transition dumps the last N span trees to disk (reason "breaker_open").
func WithFlightRecorder(f *obs.FlightRecorder) Option {
	return func(s *Server) { s.recorder = f }
}

// WithLogger emits one structured log record per request (route, status,
// duration, trace id) at Debug for 2xx/3xx and Warn for errors.
func WithLogger(l *slog.Logger) Option {
	return func(s *Server) { s.logger = l }
}

// WithInjector arms deterministic fault points (slow/refused scoring) for
// the chaos suite. Nil is the production default: every point is inert.
func WithInjector(inj *faultinject.Injector) Option {
	return func(s *Server) { s.inj = inj }
}

// New builds a server around a trained model and its predictor head (the
// trainer's head; see train.Trainer.Predictor).
func New(model models.TGNN, predictor *nn.MLP, numNodes int, opts ...Option) *Server {
	s := &Server{model: model, predictor: predictor, numNodes: numNodes, started: time.Now()}
	for _, o := range opts {
		o(s)
	}
	if s.metrics == nil {
		s.metrics = obs.NewRegistry()
	}
	// The controller and breaker are built after option processing so they
	// export into the final registry.
	if s.limits != nil {
		s.admit = load.NewController(*s.limits, s.metrics)
	}
	if s.breakerCfg != nil {
		cfg := *s.breakerCfg
		cfg.Obs = s.metrics
		if s.recorder != nil {
			// The open transition is the moment the fresh path is declared
			// down — capture the last N request/batch span trees while the
			// evidence is still in the ring. OnOpen runs under the breaker
			// mutex; Dump never touches the breaker, so no reentrancy.
			rec, log, user := s.recorder, s.logger, cfg.OnOpen
			cfg.OnOpen = func() {
				if path, err := rec.Dump("breaker_open"); err != nil {
					logWarn(log, "flight dump failed", "reason", "breaker_open", "error", err.Error())
				} else {
					s.metrics.Counter("serve_flight_dumps_total").Inc()
					logWarn(log, "flight dump written", "reason", "breaker_open", "path", path)
				}
				if user != nil {
					user()
				}
			}
		}
		s.breaker = load.NewBreaker(cfg)
	}
	return s
}

func logWarn(l *slog.Logger, msg string, args ...any) {
	if l != nil {
		l.Warn(msg, args...)
	}
}

// Metrics exposes the server's registry (what GET /metrics renders).
func (s *Server) Metrics() *obs.Registry { return s.metrics }

// EventIn is the wire form of one ingested event. Feats is accepted for
// forward compatibility but rejected with a typed 400 (non-finite values as
// graph.ErrNonFiniteFeature, finite ones as unsupported) — see
// validateEventsIn in durable.go.
type EventIn struct {
	Src   int32     `json:"src"`
	Dst   int32     `json:"dst"`
	Time  float64   `json:"time"`
	Feats []float32 `json:"feats,omitempty"`
}

// PairIn is one (src, dst) candidate edge to score.
type PairIn struct {
	Src int32 `json:"src"`
	Dst int32 `json:"dst"`
}

type ingestRequest struct {
	Events []EventIn `json:"events"`
	// Bid is the router's monotonic per-shard batch id (0 = direct client,
	// no dedup). A batch whose bid is ≤ the last applied one was already
	// ingested — the router re-sends after an ambiguous failure, and the
	// dedup here is what makes hinted-handoff replay exactly-once.
	Bid uint64 `json:"bid,omitempty"`
}

type scoreRequest struct {
	Pairs []PairIn `json:"pairs"`
	Time  float64  `json:"time"`
}

// Handler returns the HTTP mux for the server. The POST routes run behind
// the per-request deadline and the admission controller; the probe routes
// (/healthz, /readyz) bypass both so an overloaded server still answers
// its load balancer.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("POST /ingest", s.instrument("ingest", s.withDeadline(s.admitted(load.ClassLow, s.jsonBody(s.handleIngest)))))
	mux.Handle("POST /score", s.instrument("score", s.withDeadline(s.admitted(load.ClassHigh, s.jsonBody(s.handleScore)))))
	mux.Handle("GET /stats", s.instrument("stats", s.handleStats))
	mux.Handle("GET /metrics", s.instrument("metrics", s.handleMetrics))
	mux.Handle("GET /healthz", s.instrument("healthz", s.handleHealthz))
	mux.Handle("GET /readyz", s.instrument("readyz", s.handleReadyz))
	mux.Handle("POST /admin/promote", s.instrument("promote", s.handlePromote))
	return mux
}

// statusWriter remembers the response code for the metrics middleware.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a route with request counting, error counting (4xx and
// 5xx in `serve_<route>_errors_total`, 5xx alone in `serve_<route>_5xx_total`)
// and a latency histogram (`serve_<route>_seconds`). A propagated traceparent header (the router's, or any
// client's) continues the remote trace: the span — and the slog line —
// carry the cluster-wide trace-id.
func (s *Server) instrument(route string, next http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		var sp *obs.Span
		if parent, ok := obs.Extract(r.Header); ok {
			sp = s.tracer.StartRemote("serve_"+route, obs.PhaseOther, parent)
		} else {
			sp = s.tracer.Start("serve_"+route, obs.PhaseOther)
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next(sw, r)
		elapsed := time.Since(start)
		sp.SetStr("route", route)
		sp.SetInt("status", int64(sw.status))
		sp.End()
		s.metrics.Counter("serve_" + route + "_requests_total").Inc()
		if sw.status >= 400 {
			s.metrics.Counter("serve_" + route + "_errors_total").Inc()
			// Only 5xx spends the availability error budget: a shed (429) or
			// a bad request is the client's to fix (DESIGN.md §16).
			if sw.status >= 500 {
				s.metrics.Counter("serve_" + route + "_5xx_total").Inc()
			}
		}
		s.metrics.Histogram("serve_"+route+"_seconds", obs.LatencyEdges...).Observe(elapsed.Seconds())
		if s.logger != nil {
			lvl := slog.LevelDebug
			if sw.status >= 400 {
				lvl = slog.LevelWarn
			}
			args := []any{
				"route", route, "status", sw.status,
				"duration_ms", float64(elapsed.Nanoseconds()) / 1e6,
				"span_id", sp.ID(),
			}
			if tid := sp.TraceID(); tid != "" {
				args = append(args, "trace_id", tid)
			}
			s.logger.Log(r.Context(), lvl, "request", args...)
		}
	})
}

// jsonBody enforces the request-body contract shared by the POST routes:
// a JSON media type when Content-Type is present, and a MaxBodyBytes cap.
func (s *Server) jsonBody(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if ct := r.Header.Get("Content-Type"); ct != "" {
			mt, _, err := mime.ParseMediaType(ct)
			if err != nil || (mt != "application/json" && mt != "text/json") {
				httpError(w, http.StatusUnsupportedMediaType, "content type %q not supported; use application/json", ct)
				return
			}
		}
		r.Body = http.MaxBytesReader(w, r.Body, MaxBodyBytes)
		next(w, r)
	}
}

// decode unmarshals the request body into v, translating an exceeded body
// cap into 413 and malformed JSON into 400. Returns false when a response
// was already written.
func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			httpError(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", tooLarge.Limit)
			return false
		}
		httpError(w, http.StatusBadRequest, "bad JSON: %v", err)
		return false
	}
	return true
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	var req ingestRequest
	if !decode(w, r, &req) {
		return
	}
	if len(req.Events) == 0 {
		httpError(w, http.StatusBadRequest, "no events")
		return
	}
	s.mu.Lock()
	// A standby never takes writes: a router retrying here after failover
	// must get a typed refusal, not a divergent second timeline.
	if Role(s.role.Load()) == RoleStandby {
		s.mu.Unlock()
		httpErrorCode(w, http.StatusServiceUnavailable, "not_primary", "standby does not accept writes")
		return
	}
	// Bid dedup comes before validation: a re-sent batch was already
	// applied, so its events sit at (not after) lastTime and would fail
	// the time-order check a second time.
	if req.Bid > 0 && req.Bid <= s.lastBid {
		n := len(req.Events)
		s.mu.Unlock()
		s.metrics.Counter("serve_ingest_deduped_total").Inc()
		writeJSON(w, map[string]any{"ingested": n, "deduped": true})
		return
	}
	// Validation (the graph package's stream invariants, typed errors)
	// happens before the WAL sees anything: a malformed batch must never be
	// logged, or replay would refuse the log.
	events, err := s.validateEventsIn(req.Events)
	if err != nil {
		s.mu.Unlock()
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Durability barrier: the batch is logged (and, under the batch/always
	// sync policies, fsynced) before it touches the model, so an acked batch
	// survives a crash. A broken log means acks would be lies — degrade to
	// read-only with a typed 503 and leave /score alone.
	if s.wlog != nil {
		if s.walBroken.Load() {
			s.mu.Unlock()
			s.metrics.Counter("serve_wal_unavailable_total").Inc()
			httpErrorCode(w, http.StatusServiceUnavailable, "wal_unavailable", "event log unavailable; serving read-only")
			return
		}
		seq, werr := s.appendWALLocked(events, req.Bid)
		if werr != nil {
			s.mu.Unlock()
			s.metrics.Counter("serve_wal_unavailable_total").Inc()
			httpErrorCode(w, http.StatusServiceUnavailable, "wal_unavailable", "event log write failed: %v", werr)
			return
		}
		s.applyEventsLocked(events)
		s.appliedSeq = seq
		s.metrics.Gauge("serve_wal_applied_seq").Set(float64(seq))
	} else {
		// Apply pending messages, then queue this batch's — the same cycle
		// the trainer runs, so the online memory matches training semantics.
		s.applyEventsLocked(events)
	}
	if req.Bid > 0 {
		s.lastBid = req.Bid
	}
	s.metrics.Counter("serve_events_ingested_total").Add(int64(len(events)))
	s.metrics.Histogram("serve_ingest_batch_size", obs.SizeEdges...).Observe(float64(len(events)))
	s.metrics.Gauge("serve_stream_time").Set(s.lastTime)
	s.maybeCompactLocked()
	seq, repl, ackTimeout := s.appliedSeq, s.repl, s.replOpts.AckTimeout
	s.mu.Unlock()
	// Semi-synchronous replication: hold the ack until the standby has the
	// batch on disk — this wait is what makes "zero acked-but-lost" hold
	// across a primary SIGKILL. It runs OUTSIDE the model lock so a slow
	// standby never blocks /score. On timeout the batch is acked anyway
	// (availability over strictness); the counter and /readyz's
	// "standby lagging" reason record the degradation.
	if repl != nil && s.wlog != nil {
		if err := repl.WaitAcked(seq, ackTimeout); err != nil {
			s.metrics.Counter("serve_repl_ack_timeouts_total").Inc()
		}
	}
	writeJSON(w, map[string]any{"ingested": len(events)})
}

// validPairs applies the request-shape contract (non-empty, nodes in
// range); it writes the 400 itself so both the fresh and the degraded path
// share it.
func (s *Server) validPairs(w http.ResponseWriter, req *scoreRequest) bool {
	if len(req.Pairs) == 0 {
		httpError(w, http.StatusBadRequest, "no pairs")
		return false
	}
	for i, p := range req.Pairs {
		if p.Src < 0 || int(p.Src) >= s.numNodes || p.Dst < 0 || int(p.Dst) >= s.numNodes {
			httpError(w, http.StatusBadRequest, "pair %d: node out of range", i)
			return false
		}
	}
	return true
}

// scorePairs embeds each (src, dst) pair at time `at` and returns the
// predictor's logit per pair. Read-only: it embeds against the freshest
// state (pending messages applied) through models.EmbedScoped, which rolls
// back exactly what the cycle wrote — the pending nodes' memory rows and
// stamps, the drained message queue, RNG draws — so nothing leaks into the
// served stream state, and a request costs O(pending nodes), not O(all
// nodes). The caller must hold the lock that guards model and predictor; the
// scoring tape goes back to the arena before returning.
func scorePairs(model models.TGNN, predictor *nn.MLP, pairs []PairIn, at float64) []float32 {
	n := len(pairs)
	nodes := make([]int32, 0, 2*n)
	ts := make([]float64, 0, 2*n)
	for _, p := range pairs {
		nodes = append(nodes, p.Src)
		ts = append(ts, at)
	}
	for _, p := range pairs {
		nodes = append(nodes, p.Dst)
		ts = append(ts, at)
	}
	emb, upd := models.EmbedScoped(model, nodes, ts)
	srcIdx := make([]int, n)
	dstIdx := make([]int, n)
	for i := 0; i < n; i++ {
		srcIdx[i] = i
		dstIdx[i] = n + i
	}
	pair := tensor.ConcatColsT(tensor.GatherRowsT(emb, srcIdx), tensor.GatherRowsT(emb, dstIdx))
	logits := predictor.Forward(pair)
	out := append([]float32(nil), logits.Value.Data...)
	upd.FreeTape(logits)
	return out
}

func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) {
	var req scoreRequest
	if !decode(w, r, &req) {
		return
	}
	if !s.validPairs(w, &req) {
		return
	}
	// An injected refusal or an open breaker turns the request away before
	// it can touch the model.
	if s.inj.Fire(faultinject.PointServeRefuse) || !s.breaker.Allow() {
		scoreUnavailable(w)
		return
	}
	scores, err := s.scoreFresh(r.Context(), &req)
	if err != nil {
		// A deadline miss on the fresh path is the breaker's failure
		// signal: enough of them in a row and /score answers 503 until the
		// cooldown probe succeeds.
		s.breaker.RecordFailure()
		s.metrics.Counter("serve_deadline_misses_total").Inc()
		scoreUnavailable(w)
		return
	}
	s.breaker.RecordSuccess()
	s.metrics.Counter("serve_pairs_scored_total").Add(int64(len(req.Pairs)))
	writeJSON(w, map[string]any{"scores": scores, "stale": false})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	resp := map[string]any{
		"ingested":       s.ingested,
		"scored":         s.scored,
		"last_time":      s.lastTime,
		"uptime_seconds": time.Since(s.started).Seconds(),
		"num_nodes":      s.numNodes,
		"inflight":       s.admit.Inflight(),
		"queued":         s.admit.QueueLen(),
		"breaker":        s.breaker.State().String(),
		"draining":       s.draining.Load(),
		// Top-level (not only under "repl") so a restarted router can re-sync
		// its bid floor against a solo shard too.
		"last_bid": s.lastBid,
	}
	if s.wlog != nil {
		resp["wal"] = map[string]any{
			"applied_seq": s.appliedSeq,
			"next_seq":    s.wlog.NextSeq(),
			"broken":      s.walBroken.Load(),
		}
	}
	if repl := s.replStatsLocked(); repl != nil {
		resp["repl"] = repl
	}
	// The fingerprint requires a full deep copy of the stream state, so it
	// hides behind ?full=1 — it exists for recovery verification (the chaos
	// suite compares a recovered process against a reference), not for
	// routine polling.
	if r.URL.Query().Get("full") == "1" {
		resp["state_fingerprint"] = fmt.Sprintf("%016x", s.model.Snapshot().Fingerprint())
	}
	writeJSON(w, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.metrics.WritePrometheus(w)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers already sent; nothing better to do than drop.
		_ = err
	}
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// httpErrorCode is httpError with a machine-readable "code" field, for
// errors clients must dispatch on (e.g. "wal_unavailable" → back off and
// retry elsewhere, vs. a 4xx → fix the request).
func httpErrorCode(w http.ResponseWriter, status int, code, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...), "code": code})
}
