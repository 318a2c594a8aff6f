package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/cascade-ml/cascade/internal/load"
	"github.com/cascade-ml/cascade/internal/obs"
	"github.com/cascade-ml/cascade/internal/resilience/faultinject"
	"github.com/cascade-ml/cascade/internal/serve"
)

// ShardSpec names one shard's members: a primary and an optional standby,
// each a base URL ("http://host:port").
type ShardSpec struct {
	Primary string
	Standby string
}

// RouterConfig tunes the shard router.
type RouterConfig struct {
	// Shards is the cluster layout; len(Shards) is the rendezvous modulus,
	// so the order and count must match across router restarts.
	Shards []ShardSpec
	// ProbeInterval is the health-probe cadence (default 250ms).
	ProbeInterval time.Duration
	// ProbeTimeout bounds each probe (default half the interval).
	ProbeTimeout time.Duration
	// ProbeMisses is the consecutive-miss count that declares a member dead
	// and, for a primary with a live standby, triggers failover (default 3).
	ProbeMisses int
	// HintDepth bounds each shard's hinted-handoff queue in batches
	// (default 256). Beyond it, ingest returns 503 — bounded memory beats
	// unbounded promises.
	HintDepth int
	// RequestTimeout bounds each proxied request (default 5s).
	RequestTimeout time.Duration
	// Client overrides the proxy HTTP client (default: fresh client, keeps
	// RequestTimeout).
	Client *http.Client
	// Metrics receives router_* series (nil-safe).
	Metrics *obs.Registry
	// Tracer, when non-nil, starts a distributed root span per /ingest and
	// /score request and propagates its traceparent to every shard touched
	// (see obs/ctx.go). Nil disables tracing but not routing.
	Tracer *obs.Tracer
	// Injector arms probe/timeout and promote fault points (nil disables).
	Injector *faultinject.Injector
	// Logger receives failover and hint lifecycle events (nil for silent).
	Logger *slog.Logger
}

// hint is one batch waiting for its shard to take writes again. The bid was
// assigned at first send and sticks across retries — the shard's dedup keys
// off it, which is what makes replay exactly-once.
type hint struct {
	bid    uint64
	events []serve.EventIn
}

// member is one process in a shard. The last* fields cache what the most
// recent /readyz probe reported, so /debug/cluster and the router's own
// /readyz can surface per-member health without extra round trips.
type member struct {
	url         string
	alive       bool
	misses      int
	lastReady   bool
	lastReasons []string
	replLag     uint64 // repl_lag_records from the member's last /readyz
}

// shard is the router's state for one primary/standby pair. Writes and
// failover serialize on mu — hinted batches must flush in assignment order,
// and a promote must not interleave with an in-flight ingest decision.
type shard struct {
	id      int
	mu      sync.Mutex
	members []*member
	primary int // index into members
	breaker *load.Breaker
	hints   []hint
	nextBid uint64
	// bidSynced flips after the first successful /stats read of the writable
	// member: a restarted router must resume above the shard's last applied
	// bid or its fresh batches would be wrongly deduped.
	bidSynced bool
}

func (sh *shard) standbyIdx() int {
	if len(sh.members) < 2 {
		return -1
	}
	return 1 - sh.primary
}

// Router fronts the shard cluster: it splits /ingest and /score requests
// across shards by pair ownership (hash.go), health-checks every member,
// promotes a standby when its primary goes quiet, and buffers writes as
// hinted handoff while a shard has no writable member. Stateless across
// restarts except for the hint queues (bounded, in-memory — a router crash
// loses only batches it never acknowledged).
type Router struct {
	cfg    RouterConfig
	client *http.Client
	shards []*shard
	m      *obs.Registry
	tracer *obs.Tracer

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewRouter builds the router and starts its probe loop. Call Stop to halt.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, errors.New("cluster: router needs at least one shard")
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 250 * time.Millisecond
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = cfg.ProbeInterval / 2
	}
	if cfg.ProbeMisses <= 0 {
		cfg.ProbeMisses = 3
	}
	if cfg.HintDepth <= 0 {
		cfg.HintDepth = 256
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 5 * time.Second
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: cfg.RequestTimeout}
	}
	r := &Router{cfg: cfg, client: client, m: cfg.Metrics, tracer: cfg.Tracer, stop: make(chan struct{})}
	for i, spec := range cfg.Shards {
		if spec.Primary == "" {
			return nil, fmt.Errorf("cluster: shard %d has no primary", i)
		}
		sh := &shard{
			id:      i,
			members: []*member{{url: strings.TrimRight(spec.Primary, "/")}},
			breaker: load.NewBreaker(load.BreakerConfig{
				FailureThreshold: cfg.ProbeMisses,
				Cooldown:         cfg.ProbeInterval,
				Gauge:            "router_breaker_state",
			}),
		}
		if spec.Standby != "" {
			sh.members = append(sh.members, &member{url: strings.TrimRight(spec.Standby, "/")})
		}
		r.shards = append(r.shards, sh)
	}
	r.wg.Add(1)
	go r.probeLoop()
	return r, nil
}

// Stop halts the probe loop. In-flight proxied requests finish.
func (r *Router) Stop() {
	close(r.stop)
	r.wg.Wait()
}

func (r *Router) shardLabel(id int) map[string]string {
	return map[string]string{"shard": strconv.Itoa(id)}
}

// ---------------------------------------------------------------------------
// HTTP surface

// Handler returns the router's HTTP mux. The data-plane routes mirror the
// shard servers' (/ingest, /score) so clients can point at either a solo
// server or a router unchanged; they run behind the tracing/metrics
// middleware.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("POST /ingest", r.instrument("ingest", r.handleIngest))
	mux.Handle("POST /score", r.instrument("score", r.handleScore))
	mux.Handle("GET /stats", http.HandlerFunc(r.handleStats))
	mux.Handle("GET /healthz", http.HandlerFunc(r.handleHealthz))
	mux.Handle("GET /readyz", http.HandlerFunc(r.handleReadyz))
	mux.Handle("GET /metrics", http.HandlerFunc(r.handleMetrics))
	mux.Handle("GET /debug/cluster", http.HandlerFunc(r.handleDebugCluster))
	return mux
}

// rstatusWriter remembers the response code for the middleware.
type rstatusWriter struct {
	http.ResponseWriter
	status int
}

func (w *rstatusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// spanCtxKey carries the request's distributed-trace context through
// context.Context to the shard-proxying helpers.
type spanCtxKey struct{}

// spanCtxFrom recovers the trace context instrument stored (zero when the
// request was not instrumented, e.g. in direct handler tests).
func spanCtxFrom(ctx context.Context) obs.SpanContext {
	sc, _ := ctx.Value(spanCtxKey{}).(obs.SpanContext)
	return sc
}

// instrument wraps a data-plane route with the cluster trace root span, the
// latency histogram (`router_<route>_seconds`) and the server-error counter
// (`router_<route>_5xx_total`). The span continues an inbound traceparent
// when the client sent one, mints a fresh trace-id otherwise, and its
// context rides the request context so postIngest/scoreShard can inject it
// shard-ward.
func (r *Router) instrument(route string, next http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		start := time.Now()
		parent, _ := obs.Extract(req.Header)
		sp := r.tracer.StartRemote("router_"+route, obs.PhaseOther, parent)
		sw := &rstatusWriter{ResponseWriter: w, status: http.StatusOK}
		req = req.WithContext(context.WithValue(req.Context(), spanCtxKey{}, sp.SpanContext()))
		next(sw, req)
		elapsed := time.Since(start)
		sp.SetStr("route", route)
		sp.SetInt("status", int64(sw.status))
		sp.End()
		r.m.Histogram("router_"+route+"_seconds", obs.LatencyEdges...).Observe(elapsed.Seconds())
		// Same SLI convention as the shards: only 5xx spends error budget.
		if sw.status >= 500 {
			r.m.Counter("router_" + route + "_5xx_total").Inc()
		}
		if r.cfg.Logger != nil {
			lvl := slog.LevelDebug
			if sw.status >= 400 {
				lvl = slog.LevelWarn
			}
			args := []any{
				"route", route, "status", sw.status,
				"duration_ms", float64(elapsed.Nanoseconds()) / 1e6,
			}
			if tid := sp.TraceID(); tid != "" {
				args = append(args, "trace_id", tid)
			}
			r.cfg.Logger.Log(req.Context(), lvl, "request", args...)
		}
	})
}

func rwriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func rhttpError(w http.ResponseWriter, status int, format string, args ...any) {
	rwriteJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

type routerIngestRequest struct {
	Events []serve.EventIn `json:"events"`
}

type routerScoreRequest struct {
	Pairs []serve.PairIn `json:"pairs"`
	Time  float64        `json:"time"`
}

func (r *Router) handleIngest(w http.ResponseWriter, req *http.Request) {
	r.m.Counter("router_ingest_requests_total").Inc()
	req.Body = http.MaxBytesReader(w, req.Body, serve.MaxBodyBytes)
	var in routerIngestRequest
	if err := json.NewDecoder(req.Body).Decode(&in); err != nil {
		rhttpError(w, http.StatusBadRequest, "bad JSON: %v", err)
		return
	}
	if len(in.Events) == 0 {
		rhttpError(w, http.StatusBadRequest, "no events")
		return
	}
	// Partition by pair ownership, preserving request order within each
	// shard — the shards' stream-time validation depends on it.
	parts := make([][]serve.EventIn, len(r.shards))
	for _, ev := range in.Events {
		s := Owner(ev.Src, ev.Dst, len(r.shards))
		parts[s] = append(parts[s], ev)
	}
	direct, hinted := 0, 0
	sc := spanCtxFrom(req.Context())
	for si, events := range parts {
		if len(events) == 0 {
			continue
		}
		n, h, herr := r.ingestShard(r.shards[si], events, sc)
		if herr != nil {
			// A definitive shard-side rejection (4xx): forward it. Earlier
			// shards may already have applied their slices — ingest is
			// per-shard atomic, not per-request atomic.
			rwriteJSON(w, herr.status, herr.body)
			return
		}
		direct += n
		hinted += h
	}
	r.m.Counter("router_ingest_events_total").Add(int64(direct + hinted))
	if hinted > 0 {
		rwriteJSON(w, http.StatusAccepted, map[string]any{"ingested": direct, "hinted": hinted})
		return
	}
	rwriteJSON(w, http.StatusOK, map[string]any{"ingested": direct})
}

// shardError carries a shard's definitive (4xx) rejection back to the client.
type shardError struct {
	status int
	body   map[string]any
}

// ingestShard routes one shard's slice of a batch: hint when the shard has
// no writable member (or older hints are still queued — order!), otherwise
// send with a fresh bid and hint on ambiguous failure.
func (r *Router) ingestShard(sh *shard, events []serve.EventIn, sc obs.SpanContext) (direct, hinted int, herr *shardError) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	prim := sh.members[sh.primary]
	// Queue behind existing hints even if the shard looks healthy again:
	// batches must land in bid order, and the flusher owns the queue.
	if len(sh.hints) > 0 || !prim.alive {
		return 0, len(events), r.enqueueHintLocked(sh, events)
	}
	sh.nextBid++
	bid := sh.nextBid
	status, body, err := r.postIngest(prim.url, events, bid, sc)
	switch {
	case err == nil && status < 300:
		return len(events), 0, nil
	case err == nil && status >= 400 && status < 500:
		// Definitive rejection: the shard saw the batch and refused it. The
		// bid is burned (never applied), which is fine — dedup only needs
		// bids to increase.
		return 0, 0, &shardError{status: status, body: body}
	default:
		// Transport error or 5xx: ambiguous — the shard may or may not have
		// applied the batch. Park it under its assigned bid; the shard-side
		// dedup makes the replay exactly-once either way.
		return 0, len(events), r.enqueueHintLocked(sh, hint{bid: bid, events: events})
	}
}

// enqueueHintLocked parks a batch (or raw events, which get a bid now) in
// the shard's bounded hint queue.
func (r *Router) enqueueHintLocked(sh *shard, v any) *shardError {
	var h hint
	switch x := v.(type) {
	case hint:
		h = x
	case []serve.EventIn:
		sh.nextBid++
		h = hint{bid: sh.nextBid, events: x}
	}
	if len(sh.hints) >= r.cfg.HintDepth {
		r.m.Counter("router_hint_dropped_total").Inc()
		r.m.CounterWith("router_hint_dropped_total_by_shard", r.shardLabel(sh.id)).Inc()
		return &shardError{status: http.StatusServiceUnavailable, body: map[string]any{
			"error": fmt.Sprintf("shard %d unavailable and hint queue full", sh.id), "code": "hint_overflow",
		}}
	}
	sh.hints = append(sh.hints, h)
	hinted := len(sh.hints)
	r.m.Counter("router_hinted_total").Inc()
	r.m.GaugeWith("router_hint_depth", r.shardLabel(sh.id)).Set(float64(hinted))
	return nil
}

// postIngest sends one batch to one member, propagating the request's trace
// context (a zero sc — hint flushes, direct tests — injects nothing).
func (r *Router) postIngest(base string, events []serve.EventIn, bid uint64, sc obs.SpanContext) (int, map[string]any, error) {
	payload, _ := json.Marshal(map[string]any{"events": events, "bid": bid})
	hr, err := http.NewRequest(http.MethodPost, base+"/ingest", bytes.NewReader(payload))
	if err != nil {
		return 0, nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	sc.Inject(hr.Header)
	resp, err := r.client.Do(hr)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var body map[string]any
	_ = json.NewDecoder(io.LimitReader(resp.Body, serve.MaxBodyBytes)).Decode(&body)
	return resp.StatusCode, body, nil
}

// flushHints drains a shard's hint queue in order. Called from the probe
// loop once the shard has a live writable member; holds sh.mu throughout so
// new ingests queue behind the flush rather than jumping it.
func (r *Router) flushHints(sh *shard) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for len(sh.hints) > 0 {
		prim := sh.members[sh.primary]
		if !prim.alive {
			break
		}
		h := sh.hints[0]
		status, _, err := r.postIngest(prim.url, h.events, h.bid, obs.SpanContext{})
		switch {
		case err == nil && status < 300:
			sh.hints = sh.hints[1:]
			r.m.Counter("router_hint_flushed_total").Inc()
		case err == nil && status >= 400 && status < 500:
			// The shard definitively refused a parked batch — it can never
			// land, so holding it (and everything behind it) hostage helps
			// no one. Count the loss loudly and move on.
			sh.hints = sh.hints[1:]
			r.m.Counter("router_hint_dropped_total").Inc()
			if r.cfg.Logger != nil {
				r.cfg.Logger.Warn("hinted batch rejected by shard; dropped",
					"shard", sh.id, "bid", h.bid, "status", status)
			}
		default:
			return // still unreachable; retry next probe round
		}
	}
	r.m.GaugeWith("router_hint_depth", r.shardLabel(sh.id)).Set(float64(len(sh.hints)))
}

func (r *Router) handleScore(w http.ResponseWriter, req *http.Request) {
	r.m.Counter("router_score_requests_total").Inc()
	req.Body = http.MaxBytesReader(w, req.Body, serve.MaxBodyBytes)
	var in routerScoreRequest
	if err := json.NewDecoder(req.Body).Decode(&in); err != nil {
		rhttpError(w, http.StatusBadRequest, "bad JSON: %v", err)
		return
	}
	if len(in.Pairs) == 0 {
		rhttpError(w, http.StatusBadRequest, "no pairs")
		return
	}
	type slot struct {
		pairs []serve.PairIn
		idx   []int
	}
	parts := make([]slot, len(r.shards))
	for i, p := range in.Pairs {
		s := Owner(p.Src, p.Dst, len(r.shards))
		parts[s].pairs = append(parts[s].pairs, p)
		parts[s].idx = append(parts[s].idx, i)
	}
	scores := make([]float64, len(in.Pairs))
	stale := false
	for si, part := range parts {
		if len(part.pairs) == 0 {
			continue
		}
		got, partStale, herr := r.scoreShard(req.Context(), r.shards[si], part.pairs, in.Time)
		if herr != nil {
			rwriteJSON(w, herr.status, herr.body)
			return
		}
		stale = stale || partStale
		for j, v := range got {
			scores[part.idx[j]] = v
		}
	}
	if stale {
		r.m.Counter("router_score_stale_total").Inc()
	}
	rwriteJSON(w, http.StatusOK, map[string]any{"scores": scores, "stale": stale})
}

// scoreShard scores one shard's pairs, preferring the primary (fresh) and
// falling back to the standby (stale-ok) on breaker-open, transport failure
// or 5xx. 503 only when no member answers — reads must survive failover.
func (r *Router) scoreShard(ctx context.Context, sh *shard, pairs []serve.PairIn, at float64) ([]float64, bool, *shardError) {
	sh.mu.Lock()
	prim, stby := sh.primary, sh.standbyIdx()
	order := []int{prim}
	primOK := sh.members[prim].alive && sh.breaker.Allow()
	if stby >= 0 {
		if primOK {
			order = append(order, stby)
		} else {
			order = []int{stby, prim}
		}
	}
	urls := make([]string, len(order))
	for i, mi := range order {
		urls[i] = sh.members[mi].url
	}
	sh.mu.Unlock()

	payload, _ := json.Marshal(map[string]any{"pairs": pairs, "time": at})
	var lastErr *shardError
	for i, u := range urls {
		hr, err := http.NewRequestWithContext(ctx, http.MethodPost, u+"/score", bytes.NewReader(payload))
		if err != nil {
			continue
		}
		hr.Header.Set("Content-Type", "application/json")
		spanCtxFrom(ctx).Inject(hr.Header)
		resp, err := r.client.Do(hr)
		if err != nil {
			if order[i] == prim {
				sh.breaker.RecordFailure()
			}
			lastErr = &shardError{status: http.StatusServiceUnavailable, body: map[string]any{
				"error": fmt.Sprintf("shard %d unreachable: %v", sh.id, err), "code": "shard_down",
			}}
			continue
		}
		var body struct {
			Scores []float64 `json:"scores"`
			Stale  bool      `json:"stale"`
			Error  string    `json:"error"`
		}
		derr := json.NewDecoder(io.LimitReader(resp.Body, serve.MaxBodyBytes)).Decode(&body)
		resp.Body.Close()
		switch {
		case resp.StatusCode < 300 && derr == nil:
			if order[i] == prim {
				sh.breaker.RecordSuccess()
			}
			// Answers from a non-primary member are stale by construction:
			// the standby's state trails the replication stream.
			return body.Scores, body.Stale || order[i] != prim, nil
		case resp.StatusCode >= 400 && resp.StatusCode < 500:
			return nil, false, &shardError{status: resp.StatusCode, body: map[string]any{"error": body.Error}}
		default:
			if order[i] == prim {
				sh.breaker.RecordFailure()
			}
			lastErr = &shardError{status: http.StatusServiceUnavailable, body: map[string]any{
				"error": fmt.Sprintf("shard %d refused: %s", sh.id, body.Error), "code": "shard_down",
			}}
		}
	}
	if lastErr == nil {
		lastErr = &shardError{status: http.StatusServiceUnavailable, body: map[string]any{
			"error": fmt.Sprintf("shard %d has no reachable member", sh.id), "code": "shard_down",
		}}
	}
	return nil, false, lastErr
}

func (r *Router) handleStats(w http.ResponseWriter, req *http.Request) {
	shards := make([]map[string]any, len(r.shards))
	for i, sh := range r.shards {
		sh.mu.Lock()
		members := make([]map[string]any, len(sh.members))
		for j, m := range sh.members {
			members[j] = map[string]any{"url": m.url, "alive": m.alive, "misses": m.misses}
		}
		shards[i] = map[string]any{
			"members":  members,
			"primary":  sh.primary,
			"hints":    len(sh.hints),
			"next_bid": sh.nextBid,
			"breaker":  sh.breaker.State().String(),
		}
		sh.mu.Unlock()
	}
	rwriteJSON(w, http.StatusOK, map[string]any{
		"shards":        shards,
		"failovers":     r.m.Counter("router_failovers_total").Value(),
		"hints_dropped": r.m.Counter("router_hint_dropped_total").Value(),
		"hints_flushed": r.m.Counter("router_hint_flushed_total").Value(),
	})
}

func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	rwriteJSON(w, http.StatusOK, map[string]any{"ok": true})
}

// handleReadyz mirrors the shard servers' structured contract: 200 with
// {"ready":true} when every shard has a live member, 503 with reasons
// otherwise. Replication degradation reported by a shard primary (standby
// disconnected/lagging, with the record lag) is appended as advisory
// reasons: they name an exposure window but do not flip the status — the
// shard is still serving.
func (r *Router) handleReadyz(w http.ResponseWriter, req *http.Request) {
	reasons := []string{}
	advisory := []string{}
	for i, sh := range r.shards {
		sh.mu.Lock()
		any := false
		for _, m := range sh.members {
			any = any || m.alive
		}
		hints := len(sh.hints)
		prim := sh.members[sh.primary]
		for _, reason := range prim.lastReasons {
			switch {
			case strings.Contains(reason, "standby lagging"):
				advisory = append(advisory, fmt.Sprintf(
					"shard %d primary: standby lagging (%d records behind)", i, prim.replLag))
			case strings.Contains(reason, "standby disconnected"):
				advisory = append(advisory, fmt.Sprintf("shard %d primary: standby disconnected", i))
			}
		}
		sh.mu.Unlock()
		if !any {
			reasons = append(reasons, fmt.Sprintf("shard %d has no live member", i))
		}
		if hints > 0 {
			reasons = append(reasons, fmt.Sprintf("shard %d has %d hinted batches", i, hints))
		}
	}
	status := http.StatusOK
	if len(reasons) > 0 {
		status = http.StatusServiceUnavailable
	}
	ready := len(reasons) == 0
	reasons = append(reasons, advisory...)
	rwriteJSON(w, status, map[string]any{"ready": ready, "reasons": reasons})
}

// handleDebugCluster is the one-stop human-readable cluster summary: every
// member's role, liveness, readiness reasons and replication lag, plus each
// shard's hint depth and bid watermark.
func (r *Router) handleDebugCluster(w http.ResponseWriter, req *http.Request) {
	shards := make([]map[string]any, len(r.shards))
	for i, sh := range r.shards {
		sh.mu.Lock()
		members := make([]map[string]any, len(sh.members))
		for j, m := range sh.members {
			role := "standby"
			if j == sh.primary {
				role = "primary"
			}
			reasons := m.lastReasons
			if reasons == nil {
				reasons = []string{}
			}
			members[j] = map[string]any{
				"url": m.url, "role": role, "alive": m.alive, "misses": m.misses,
				"ready": m.lastReady, "reasons": reasons,
				"repl_lag_records": m.replLag,
			}
		}
		shards[i] = map[string]any{
			"id": sh.id, "members": members, "primary": sh.primary,
			"hints": len(sh.hints), "next_bid": sh.nextBid,
			"breaker": sh.breaker.State().String(),
		}
		sh.mu.Unlock()
	}
	rwriteJSON(w, http.StatusOK, map[string]any{
		"shards":    shards,
		"failovers": r.m.Counter("router_failovers_total").Value(),
	})
}

// handleMetrics serves the router's own registry; with ?federate=1 it also
// scrapes every cluster member and merges the expositions (federate.go).
func (r *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	if req.URL.Query().Get("federate") == "1" {
		r.handleFederate(w, req)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = r.m.WritePrometheus(w)
}

// ---------------------------------------------------------------------------
// Probing and failover

func (r *Router) probeLoop() {
	defer r.wg.Done()
	// First round immediately: the router should know its cluster before the
	// first request, not one interval later.
	for {
		for _, sh := range r.shards {
			r.probeShard(sh)
		}
		select {
		case <-r.stop:
			return
		case <-time.After(r.cfg.ProbeInterval):
		}
	}
}

// probeResult is what one /readyz round-trip learned about a member.
type probeResult struct {
	up        bool
	walBroken bool
	ready     bool
	reasons   []string
	replLag   uint64
	rtt       time.Duration
}

// probeMember is one /readyz round-trip. Any HTTP response means the process
// is up (a 503 is a server saying "degraded", not a corpse); only transport
// errors are misses. walBroken is surfaced separately: a primary whose log
// broke cannot take writes, which is failover-worthy even though it answers.
// The full ReadyStatus (reasons, repl lag) is cached on the member for
// /debug/cluster and the router's own /readyz.
func (r *Router) probeMember(m *member) probeResult {
	if err := r.cfg.Injector.Err(faultinject.PointProbeTimeout); err != nil {
		return probeResult{}
	}
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.ProbeTimeout)
	defer cancel()
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, m.url+"/readyz", nil)
	if err != nil {
		return probeResult{}
	}
	resp, err := r.client.Do(hr)
	if err != nil {
		return probeResult{}
	}
	defer resp.Body.Close()
	var st serve.ReadyStatus
	_ = json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&st)
	res := probeResult{
		up: true, ready: st.Ready, reasons: st.Reasons,
		replLag: st.ReplLagRecords, rtt: time.Since(start),
	}
	for _, reason := range st.Reasons {
		if strings.Contains(reason, "wal broken") {
			res.walBroken = true
		}
	}
	return res
}

func (r *Router) probeShard(sh *shard) {
	// Probe outside the lock — a probe is a network round-trip and the lock
	// gates the ingest path.
	results := make([]probeResult, len(sh.members))
	for i, m := range sh.members {
		results[i] = r.probeMember(m)
	}

	sh.mu.Lock()
	label := r.shardLabel(sh.id)
	aliveCount := 0
	for i, m := range sh.members {
		if results[i].up {
			m.alive = true
			m.misses = 0
			aliveCount++
			m.lastReady = results[i].ready
			m.lastReasons = results[i].reasons
			m.replLag = results[i].replLag
			r.m.GaugeWith("router_probe_rtt_seconds",
				map[string]string{"shard": strconv.Itoa(sh.id), "member": m.url}).
				Set(results[i].rtt.Seconds())
		} else {
			m.misses++
			r.m.Counter("router_probe_misses_total").Inc()
			if m.misses >= r.cfg.ProbeMisses {
				m.alive = false
				m.lastReady = false
				m.lastReasons = nil
				m.replLag = 0
			}
		}
	}
	r.m.GaugeWith("router_shard_alive_members", label).Set(float64(aliveCount))

	prim := sh.members[sh.primary]
	stby := sh.standbyIdx()
	primDead := prim.misses >= r.cfg.ProbeMisses
	primBroken := results[sh.primary].up && results[sh.primary].walBroken
	needFailover := (primDead || primBroken) && stby >= 0 && sh.members[stby].alive

	// Sync the bid floor once we can see the writable member: a restarted
	// router must not reuse bids the shard has already applied.
	if !sh.bidSynced && prim.alive {
		if last, ok := r.fetchLastBid(prim.url); ok {
			if last > sh.nextBid {
				sh.nextBid = last
			}
			sh.bidSynced = true
		}
	}

	var promoteURL string
	if needFailover {
		promoteURL = sh.members[stby].url
		// Stop preferring the dead primary for reads right now, not at the
		// next breaker threshold.
		sh.breaker.Trip()
	}
	sh.mu.Unlock()

	if promoteURL != "" {
		r.failover(sh, stby, promoteURL)
	}

	// With a writable member up, drain any parked batches.
	sh.mu.Lock()
	canFlush := len(sh.hints) > 0 && sh.members[sh.primary].alive
	sh.mu.Unlock()
	if canFlush {
		r.flushHints(sh)
	}
}

// fetchLastBid reads a member's /stats last-applied bid (best-effort).
func (r *Router) fetchLastBid(base string) (uint64, bool) {
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.ProbeTimeout)
	defer cancel()
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/stats", nil)
	if err != nil {
		return 0, false
	}
	resp, err := r.client.Do(hr)
	if err != nil {
		return 0, false
	}
	defer resp.Body.Close()
	var st struct {
		LastBid uint64 `json:"last_bid"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&st); err != nil {
		return 0, false
	}
	return st.LastBid, true
}

// failover promotes the standby and swaps the shard's primary. The promote
// request is retried (the promote fault point fails the first attempt in
// chaos runs; a real standby can also drop one request while its receiver
// shuts the old stream down).
func (r *Router) failover(sh *shard, stby int, promoteURL string) {
	start := time.Now()
	label := r.shardLabel(sh.id)
	retry := load.Retry{Attempts: 3, Base: 20 * time.Millisecond, Max: 200 * time.Millisecond, Obs: r.m}
	err := retry.Do("promote", func(int) error {
		if ferr := r.cfg.Injector.Err(faultinject.PointPromote); ferr != nil {
			return ferr
		}
		resp, err := r.client.Post(promoteURL+"/admin/promote", "application/json", nil)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		var body struct {
			Role     string `json:"role"`
			Promoted bool   `json:"promoted"`
		}
		if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&body); err != nil {
			return err
		}
		// "promoted":false with role "primary" means an earlier attempt (or
		// operator) already won — that is success, not failure.
		if body.Role != "primary" {
			return fmt.Errorf("standby refused promotion (role %q)", body.Role)
		}
		return nil
	})
	if err != nil {
		if r.cfg.Logger != nil {
			r.cfg.Logger.Warn("failover failed", "shard", sh.id, "standby", promoteURL, "error", err.Error())
		}
		return
	}
	sh.mu.Lock()
	sh.primary = stby
	sh.members[sh.primary].misses = 0
	sh.members[sh.primary].alive = true
	sh.mu.Unlock()
	// The tripped breaker was about the old primary; the new one just
	// answered a promote, so reads may prefer it immediately.
	sh.breaker.RecordSuccess()
	elapsed := time.Since(start).Seconds()
	r.m.Counter("router_failovers_total").Inc()
	r.m.CounterWith("router_failovers_total_by_shard", label).Inc()
	r.m.GaugeWith("router_failover_seconds", label).Set(elapsed)
	if r.cfg.Logger != nil {
		r.cfg.Logger.Warn("failover complete", "shard", sh.id, "new_primary", promoteURL, "seconds", elapsed)
	}
}
