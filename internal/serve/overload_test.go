package serve

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"github.com/cascade-ml/cascade/internal/batching"
	"github.com/cascade-ml/cascade/internal/graph"
	"github.com/cascade-ml/cascade/internal/graph/datagen"
	"github.com/cascade-ml/cascade/internal/load"
	"github.com/cascade-ml/cascade/internal/models"
	"github.com/cascade-ml/cascade/internal/nn"
	"github.com/cascade-ml/cascade/internal/obs"
	"github.com/cascade-ml/cascade/internal/resilience/faultinject"
	"github.com/cascade-ml/cascade/internal/train"
)

func overloadData(t *testing.T) *graph.Dataset {
	t.Helper()
	return datagen.Wiki.Generate(datagen.Options{Scale: 0.002, Seed: 91, FeatDimOverride: 4, MinEvents: 600})
}

// buildServer assembles an untrained server (weights at seeded init, so a
// replica built by the same recipe matches bit for bit).
func buildServer(t *testing.T, ds *graph.Dataset, opts ...Option) *Server {
	t.Helper()
	m, p := replicaPair(t, ds)
	return New(m, p, ds.NumNodes, opts...)
}

// replicaPair builds a (model, predictor) pair deterministically from the
// dataset: calling it twice yields two independent copies with identical
// weights — the stale-replica contract.
func replicaPair(t *testing.T, ds *graph.Dataset) (models.TGNN, *nn.MLP) {
	t.Helper()
	tr, val := ds.Split(0.8)
	m := models.MustNew("JODIE", ds, 8, 4, 3)
	trainer, err := train.NewTrainer(train.Config{
		Model: m, Sched: batching.NewFixed("TGL", tr.NumEvents(), 50),
		Data: tr, Val: val, ValBatch: 50, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m, trainer.Predictor()
}

type scoreResp struct {
	Scores []float64 `json:"scores"`
	Stale  bool      `json:"stale"`
}

func scoreBody(src, dst int) map[string]any {
	return map[string]any{"pairs": []map[string]any{{"src": src, "dst": dst}}, "time": 1e7}
}

// TestOverloadShedsNotCollapses is the acceptance criterion: a 10× burst
// against a saturated scorer must split cleanly into admitted requests
// (bounded latency) and shed ones (429 + Retry-After) — nothing hangs,
// nothing gets another status, and the wait queue never exceeds its bound.
func TestOverloadShedsNotCollapses(t *testing.T) {
	const (
		inflight = 2
		queue    = 2
		delay    = 50 * time.Millisecond
		clients  = 10 * (inflight + queue) // 10× capacity
	)
	inj := faultinject.New()
	inj.ArmDelay(faultinject.PointServeSlowScore, delay) // every score is slow
	reg := obs.NewRegistry()
	s := buildServer(t, overloadData(t),
		WithRegistry(reg), WithInjector(inj),
		WithLimits(load.Limits{MaxInflight: inflight, QueueDepth: queue}))
	h := s.Handler()

	var (
		mu        sync.Mutex
		admitted  []time.Duration
		shed      int
		badStatus []int
	)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			rec := post(t, h, "/score", scoreBody(1, 61))
			elapsed := time.Since(start)
			mu.Lock()
			defer mu.Unlock()
			switch rec.Code {
			case http.StatusOK:
				admitted = append(admitted, elapsed)
			case http.StatusTooManyRequests:
				shed++
				if rec.Header().Get("Retry-After") == "" {
					t.Error("429 without Retry-After")
				}
			default:
				badStatus = append(badStatus, rec.Code)
			}
		}()
	}
	wg.Wait()

	if len(badStatus) > 0 {
		t.Fatalf("unexpected statuses under overload: %v", badStatus)
	}
	if len(admitted) == 0 || shed == 0 {
		t.Fatalf("admitted %d shed %d: want both > 0", len(admitted), shed)
	}
	if len(admitted)+shed != clients {
		t.Fatalf("admitted %d + shed %d != %d clients", len(admitted), shed, clients)
	}
	// Bounded latency: an admitted request waits behind at most the queue
	// plus the inflight slots, each holding the model for ~delay. An
	// unbounded queue would push the tail toward clients×delay.
	sort.Slice(admitted, func(i, j int) bool { return admitted[i] < admitted[j] })
	p99 := admitted[len(admitted)*99/100]
	bound := time.Duration(inflight+queue+2)*delay + 500*time.Millisecond
	if p99 > bound {
		t.Fatalf("admitted p99 %v exceeds bound %v (queue not bounding latency)", p99, bound)
	}
	if got := reg.Counter("load_shed_total").Value(); got != int64(shed) {
		t.Fatalf("load_shed_total %d, want %d", got, shed)
	}
	if reg.Counter("load_admitted_total").Value() == 0 {
		t.Fatal("load_admitted_total not exported")
	}
}

// TestRateLimitSheds: an empty token bucket sheds with 429 and a
// Retry-After hint even with the queue idle.
func TestRateLimitSheds(t *testing.T) {
	s := buildServer(t, overloadData(t),
		WithLimits(load.Limits{MaxInflight: 8, Rate: 0.001, Burst: 1}))
	h := s.Handler()
	if rec := post(t, h, "/score", scoreBody(1, 61)); rec.Code != http.StatusOK {
		t.Fatalf("first request: %d %s", rec.Code, rec.Body)
	}
	rec := post(t, h, "/score", scoreBody(1, 61))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("empty bucket: %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("rate-limit shed without Retry-After")
	}
}

// TestScore5xxCounter: serve_score_5xx_total counts server errors only —
// the availability SLI's numerator (DESIGN.md §16). A bad request (400) or
// a shed (429) spends no error budget; a refused score with no stale
// replica (503) does.
func TestScore5xxCounter(t *testing.T) {
	inj := faultinject.New()
	inj.Arm(faultinject.PointServeRefuse, 1)
	reg := obs.NewRegistry()
	// Two tokens: the 400 and the 503 spend them, the third request is shed.
	s := buildServer(t, overloadData(t), WithRegistry(reg), WithInjector(inj),
		WithLimits(load.Limits{MaxInflight: 8, Rate: 0.001, Burst: 2}))
	h := s.Handler()
	for _, step := range []struct {
		body    any
		want    int
		want5xx int64
	}{
		{map[string]any{"pairs": []any{}}, http.StatusBadRequest, 0},
		{scoreBody(1, 61), http.StatusServiceUnavailable, 1},
		{scoreBody(1, 61), http.StatusTooManyRequests, 1},
	} {
		if rec := post(t, h, "/score", step.body); rec.Code != step.want {
			t.Fatalf("score: %d %s, want %d", rec.Code, rec.Body, step.want)
		}
		if got := reg.Counter("serve_score_5xx_total").Value(); got != step.want5xx {
			t.Fatalf("after a %d: serve_score_5xx_total = %d, want %d", step.want, got, step.want5xx)
		}
	}
}

// TestStaleReplicaMatchesFreshAndRefreshes: with identical weights the
// degraded path returns the same scores as the fresh one, marks them
// stale, and re-syncs from the live model on ingest.
func TestStaleReplicaMatchesFreshAndRefreshes(t *testing.T) {
	ds := overloadData(t)
	sm, sp := replicaPair(t, ds)
	inj := faultinject.New()
	inj.Arm(faultinject.PointServeRefuse, 2) // only the 2nd score is refused
	reg := obs.NewRegistry()
	s := buildServer(t, ds,
		WithRegistry(reg), WithInjector(inj), WithStaleReplica(sm, sp, 0))
	h := s.Handler()

	decode := func(rec *httptest.ResponseRecorder) scoreResp {
		t.Helper()
		if rec.Code != http.StatusOK {
			t.Fatalf("score status %d: %s", rec.Code, rec.Body)
		}
		var r scoreResp
		if err := json.Unmarshal(rec.Body.Bytes(), &r); err != nil {
			t.Fatal(err)
		}
		return r
	}
	fresh := decode(post(t, h, "/score", scoreBody(3, 40)))
	if fresh.Stale {
		t.Fatal("unfaulted score marked stale")
	}
	stale := decode(post(t, h, "/score", scoreBody(3, 40)))
	if !stale.Stale {
		t.Fatal("refused score not served from the stale replica")
	}
	if len(fresh.Scores) != 1 || len(stale.Scores) != 1 || fresh.Scores[0] != stale.Scores[0] {
		t.Fatalf("stale score %v != fresh score %v despite identical replicas", stale.Scores, fresh.Scores)
	}
	if got := reg.Counter("serve_score_stale_total").Value(); got != 1 {
		t.Fatalf("serve_score_stale_total %d, want 1", got)
	}

	// Ingest re-syncs the replica: its stream clock must advance with the
	// live one, so degraded scores reflect recent events.
	if rec := post(t, h, "/ingest", map[string]any{"events": []map[string]any{
		{"src": 3, "dst": 40, "time": 2e7},
	}}); rec.Code != http.StatusOK {
		t.Fatalf("ingest: %d %s", rec.Code, rec.Body)
	}
	if reg.Counter("serve_stale_refresh_total").Value() == 0 {
		t.Fatal("ingest did not refresh the stale replica")
	}
	s.stale.mu.Lock()
	staleTime := s.stale.lastTime
	s.stale.mu.Unlock()
	if staleTime != 2e7 {
		t.Fatalf("stale replica clock %v, want 2e7", staleTime)
	}
}

// TestQueueFullDegradesToStale: when /score is shed for queue-full and a
// stale replica exists, the request degrades instead of bouncing — the
// stale path has its own lock, so saturation of the fresh path doesn't
// block it.
func TestQueueFullDegradesToStale(t *testing.T) {
	ds := overloadData(t)
	sm, sp := replicaPair(t, ds)
	inj := faultinject.New()
	inj.ArmDelay(faultinject.PointServeSlowScore, 300*time.Millisecond, 1)
	s := buildServer(t, ds,
		WithInjector(inj), WithStaleReplica(sm, sp, 0),
		WithLimits(load.Limits{MaxInflight: 1, QueueDepth: 1}))
	h := s.Handler()

	// Occupy the single slot with a slow score, and the queue with one more.
	hold := make(chan *httptest.ResponseRecorder, 2)
	for i := 0; i < 2; i++ {
		go func() { hold <- post(t, h, "/score", scoreBody(1, 61)) }()
	}
	waitForCond(t, func() bool { return s.admit.Saturated() })

	rec := post(t, h, "/score", scoreBody(3, 40))
	if rec.Code != http.StatusOK {
		t.Fatalf("saturated score: %d %s, want degraded 200", rec.Code, rec.Body)
	}
	var r scoreResp
	if err := json.Unmarshal(rec.Body.Bytes(), &r); err != nil {
		t.Fatal(err)
	}
	if !r.Stale {
		t.Fatal("saturated score not marked stale")
	}
	for i := 0; i < 2; i++ {
		if rec := <-hold; rec.Code != http.StatusOK {
			t.Fatalf("held score: %d %s", rec.Code, rec.Body)
		}
	}
}

// TestBreakerOpensOnDeadlineMissesAndRecovers: consecutive deadline misses
// trip the scoring breaker (readyz → 503, breaker_state → open); after the
// cooldown one successful probe closes it again.
func TestBreakerOpensOnDeadlineMissesAndRecovers(t *testing.T) {
	clk := struct {
		mu sync.Mutex
		t  time.Time
	}{t: time.Unix(0, 0)}
	now := func() time.Time {
		clk.mu.Lock()
		defer clk.mu.Unlock()
		return clk.t
	}
	inj := faultinject.New()
	inj.ArmDelay(faultinject.PointServeSlowScore, 120*time.Millisecond, 1, 2)
	reg := obs.NewRegistry()
	s := buildServer(t, overloadData(t),
		WithRegistry(reg), WithInjector(inj),
		WithBreaker(load.BreakerConfig{FailureThreshold: 2, Cooldown: 10 * time.Second, Now: now}))
	h := s.Handler()

	// Two scores whose 30ms deadline dies inside the 120ms injected stall.
	for i := 0; i < 2; i++ {
		req := httptest.NewRequest("POST", "/score", strings.NewReader(`{"pairs":[{"src":1,"dst":61}],"time":1e7}`))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Request-Timeout-Ms", "30")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("deadline-missed score %d: %d %s, want 503", i, rec.Code, rec.Body)
		}
	}
	if got := reg.Counter("serve_deadline_misses_total").Value(); got != 2 {
		t.Fatalf("serve_deadline_misses_total %d, want 2", got)
	}
	if st := s.breaker.State(); st != load.BreakerOpen {
		t.Fatalf("breaker %v after threshold misses, want open", st)
	}
	if got := reg.Gauge("breaker_state").Value(); got != float64(load.BreakerOpen) {
		t.Fatalf("breaker_state gauge %v, want %v", got, float64(load.BreakerOpen))
	}
	if rec := get(t, h, "/readyz"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz with open breaker: %d, want 503", rec.Code)
	}
	// While open, scoring is refused without touching the model (503 — no
	// stale replica configured).
	if rec := post(t, h, "/score", scoreBody(1, 61)); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("score with open breaker: %d, want 503", rec.Code)
	}

	// Cooldown elapses; the slow-score injections are spent, so the probe
	// succeeds and the breaker closes.
	clk.mu.Lock()
	clk.t = clk.t.Add(11 * time.Second)
	clk.mu.Unlock()
	if rec := post(t, h, "/score", scoreBody(1, 61)); rec.Code != http.StatusOK {
		t.Fatalf("probe score: %d %s", rec.Code, rec.Body)
	}
	if st := s.breaker.State(); st != load.BreakerClosed {
		t.Fatalf("breaker %v after successful probe, want closed", st)
	}
	if rec := get(t, h, "/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("readyz after recovery: %d, want 200", rec.Code)
	}
}

// lateTimerCtx is a context whose deadline has passed but whose timer
// goroutine has not run yet: Deadline() is in the past, Err() still nil.
type lateTimerCtx struct{ context.Context }

func (lateTimerCtx) Deadline() (time.Time, bool) { return time.Now().Add(-time.Second), true }

// TestDeadlineMissDecidedByClock: a score whose deadline is already behind
// the clock is a miss even when ctx.Err() has not caught up — the outcome
// must not depend on whether the runtime woke the context's timer goroutine
// before the handler.
func TestDeadlineMissDecidedByClock(t *testing.T) {
	reg := obs.NewRegistry()
	s := buildServer(t, overloadData(t), WithRegistry(reg),
		WithBreaker(load.BreakerConfig{FailureThreshold: 1, Cooldown: time.Hour}))
	req := httptest.NewRequest("POST", "/score", strings.NewReader(`{"pairs":[{"src":1,"dst":61}],"time":1e7}`))
	req.Header.Set("Content-Type", "application/json")
	req = req.WithContext(lateTimerCtx{req.Context()})
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("score past its deadline: %d %s, want 503", rec.Code, rec.Body)
	}
	if got := reg.Counter("serve_deadline_misses_total").Value(); got != 1 {
		t.Fatalf("serve_deadline_misses_total %d, want 1", got)
	}
	if st := s.breaker.State(); st != load.BreakerOpen {
		t.Fatalf("breaker %v after the miss, want open (RecordFailure not called)", st)
	}
}

// TestHealthzAlwaysLive: liveness stays 200 through drain; readiness flips.
func TestHealthzAlwaysLive(t *testing.T) {
	s := buildServer(t, overloadData(t))
	h := s.Handler()
	if rec := get(t, h, "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("healthz: %d", rec.Code)
	}
	if rec := get(t, h, "/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("readyz: %d", rec.Code)
	}
	s.StartDrain()
	if rec := get(t, h, "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("healthz while draining: %d", rec.Code)
	}
	if rec := get(t, h, "/readyz"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d, want 503", rec.Code)
	}
	if body := get(t, h, "/readyz").Body.String(); !strings.Contains(body, "draining") {
		t.Fatalf("readyz body %q lacks the reason", body)
	}
}

// TestDeadlineExpiresInQueue: a queued request whose client deadline dies
// before a slot frees is shed with 503, not left waiting.
func TestDeadlineExpiresInQueue(t *testing.T) {
	inj := faultinject.New()
	inj.ArmDelay(faultinject.PointServeSlowScore, 400*time.Millisecond, 1)
	s := buildServer(t, overloadData(t),
		WithInjector(inj), WithLimits(load.Limits{MaxInflight: 1, QueueDepth: 2}))
	h := s.Handler()

	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- post(t, h, "/score", scoreBody(1, 61)) }()
	waitForCond(t, func() bool { return inj.Fired(faultinject.PointServeSlowScore) >= 1 })

	req := httptest.NewRequest("POST", "/score", strings.NewReader(`{"pairs":[{"src":1,"dst":61}],"time":1e7}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Timeout-Ms", "40")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("queued expired request: %d %s, want 503", rec.Code, rec.Body)
	}
	if rec := <-done; rec.Code != http.StatusOK {
		t.Fatalf("slow score: %d %s", rec.Code, rec.Body)
	}
}

// TestDrainZeroDroppedUnderLoad: SIGTERM mid-burst must flip /readyz to
// not-ready, finish every in-flight request with a real response, and exit
// cleanly — zero dropped connections.
func TestDrainZeroDroppedUnderLoad(t *testing.T) {
	const inFlight = 4
	inj := faultinject.New()
	inj.ArmDelay(faultinject.PointServeSlowScore, 200*time.Millisecond) // every hit
	s := buildServer(t, overloadData(t),
		WithInjector(inj),
		WithLimits(load.Limits{MaxInflight: inFlight, QueueDepth: inFlight}))

	var entered atomic.Int32
	inner := s.Handler()
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entered.Add(1)
		inner.ServeHTTP(w, r)
	})
	url, stop, done := startGracefulNotify(t, h, HTTPOptions{}, 10*time.Second, s.StartDrain)

	results := make(chan error, inFlight)
	for i := 0; i < inFlight; i++ {
		go func() {
			resp, err := http.Post(url+"/score", "application/json",
				strings.NewReader(`{"pairs":[{"src":1,"dst":61}],"time":1e7}`))
			if err != nil {
				results <- err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				results <- &unexpectedStatus{resp.StatusCode}
				return
			}
			results <- nil
		}()
	}
	waitForCond(t, func() bool { return int(entered.Load()) >= inFlight })
	stop <- syscall.SIGTERM
	waitForCond(t, s.Draining)

	// The drain window is open: the server must already be not-ready while
	// the in-flight requests finish.
	if rec := get(t, h, "/readyz"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain: %d, want 503", rec.Code)
	}
	for i := 0; i < inFlight; i++ {
		if err := <-results; err != nil {
			t.Fatalf("in-flight request dropped during drain: %v", err)
		}
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drain not clean: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not exit after drain")
	}
}

type unexpectedStatus struct{ code int }

func (e *unexpectedStatus) Error() string { return http.StatusText(e.code) }

func startGracefulNotify(t *testing.T, h http.Handler, opt HTTPOptions, drain time.Duration, onDrain func()) (string, chan os.Signal, chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewHTTPServer(h, opt)
	stop := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() { done <- RunGracefulNotify(srv, ln, stop, drain, onDrain) }()
	return "http://" + ln.Addr().String(), stop, done
}

func waitForCond(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 10s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
