package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/cascade-ml/cascade/internal/obs"
	"github.com/cascade-ml/cascade/internal/resilience/faultinject"
	"github.com/cascade-ml/cascade/internal/serve"
)

// stubShard is a scripted shard member: it answers the router's probe,
// ingest, score, stats and promote routes, records what it saw, and can be
// killed and revived on the same address (the failover tests need a member
// that dies at the transport level, not one that answers 5xx).
type stubShard struct {
	t    *testing.T
	addr string

	mu           sync.Mutex
	srv          *http.Server
	role         string
	lastBid      uint64
	bids         []uint64
	batches      [][]serve.EventIn
	promoteCalls int
	ingestStatus int // forced /ingest status; 0 = behave normally
	scoreStatus  int // forced /score status; 0 = behave normally
}

func newStubShard(t *testing.T, role string) *stubShard {
	t.Helper()
	s := &stubShard{t: t, role: role}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s.addr = ln.Addr().String()
	s.serveOn(ln)
	t.Cleanup(s.Kill)
	return s
}

func (s *stubShard) url() string { return "http://" + s.addr }

func (s *stubShard) serveOn(ln net.Listener) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ingest", s.handleIngest)
	mux.HandleFunc("POST /score", s.handleScore)
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		rwriteJSON(w, http.StatusOK, map[string]any{"ready": true, "reasons": []string{}})
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		defer s.mu.Unlock()
		rwriteJSON(w, http.StatusOK, map[string]any{"last_bid": s.lastBid})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		defer s.mu.Unlock()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		fmt.Fprintf(w, "# HELP stub_last_bid The member's last applied batch id.\n")
		fmt.Fprintf(w, "# TYPE stub_last_bid gauge\n")
		// The shard label collides with the federation label on purpose —
		// the federation test asserts it is renamed exported_shard.
		fmt.Fprintf(w, "stub_last_bid{shard=\"local\"} %d\n", s.lastBid)
	})
	mux.HandleFunc("POST /admin/promote", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.promoteCalls++
		promoted := s.role == "standby"
		s.role = "primary"
		rwriteJSON(w, http.StatusOK, map[string]any{"role": s.role, "promoted": promoted})
	})
	srv := &http.Server{Handler: mux}
	s.mu.Lock()
	s.srv = srv
	s.mu.Unlock()
	go srv.Serve(ln)
}

func (s *stubShard) handleIngest(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Events []serve.EventIn `json:"events"`
		Bid    uint64          `json:"bid"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		rwriteJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ingestStatus != 0 {
		rwriteJSON(w, s.ingestStatus, map[string]any{"error": "scripted failure"})
		return
	}
	if s.role == "standby" {
		rwriteJSON(w, http.StatusServiceUnavailable, map[string]any{"error": "standby", "code": "not_primary"})
		return
	}
	if req.Bid > 0 && req.Bid <= s.lastBid {
		rwriteJSON(w, http.StatusOK, map[string]any{"ingested": len(req.Events), "deduped": true})
		return
	}
	if req.Bid > 0 {
		s.lastBid = req.Bid
	}
	s.bids = append(s.bids, req.Bid)
	s.batches = append(s.batches, req.Events)
	rwriteJSON(w, http.StatusOK, map[string]any{"ingested": len(req.Events)})
}

func (s *stubShard) handleScore(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Pairs []serve.PairIn `json:"pairs"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		rwriteJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
		return
	}
	s.mu.Lock()
	forced := s.scoreStatus
	s.mu.Unlock()
	if forced != 0 {
		rwriteJSON(w, forced, map[string]any{"error": "scripted failure"})
		return
	}
	// Score encodes the pair so the merge test can verify positions.
	scores := make([]float64, len(req.Pairs))
	for i, p := range req.Pairs {
		scores[i] = float64(p.Src)*1000 + float64(p.Dst)
	}
	rwriteJSON(w, http.StatusOK, map[string]any{"scores": scores, "stale": false})
}

// Kill drops the listener and every open connection; probes start failing at
// the transport level immediately.
func (s *stubShard) Kill() {
	s.mu.Lock()
	srv := s.srv
	s.srv = nil
	s.mu.Unlock()
	if srv != nil {
		srv.Close()
	}
}

// Revive rebinds the same address.
func (s *stubShard) Revive() {
	ln, err := net.Listen("tcp", s.addr)
	if err != nil {
		s.t.Fatalf("revive %s: %v", s.addr, err)
	}
	s.serveOn(ln)
}

func (s *stubShard) snapshot() (bids []uint64, batches [][]serve.EventIn, promotes int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]uint64(nil), s.bids...), append([][]serve.EventIn(nil), s.batches...), s.promoteCalls
}

// testRouter builds a fast-probing router over the given shards.
func testRouter(t *testing.T, inj *faultinject.Injector, shards ...ShardSpec) (*Router, *obs.Registry) {
	t.Helper()
	return testRouterCfg(t, RouterConfig{
		Shards:        shards,
		ProbeInterval: 10 * time.Millisecond,
		ProbeMisses:   2,
		Injector:      inj,
	})
}

func testRouterCfg(t *testing.T, cfg RouterConfig) (*Router, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	cfg.ProbeTimeout = 100 * time.Millisecond
	cfg.HintDepth = 8
	cfg.RequestTimeout = 2 * time.Second
	r, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Stop)
	return r, reg
}

func waitRouterReady(t *testing.T, h http.Handler) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
		if rec.Code == http.StatusOK {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("router never became ready")
}

func routerPost(t *testing.T, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func routerEvents(n int, baseTime float64) []map[string]any {
	events := make([]map[string]any, n)
	for i := range events {
		events[i] = map[string]any{"src": i % 20, "dst": 20 + i%20, "time": baseTime + float64(i)}
	}
	return events
}

func TestRouterSplitsIngestByOwner(t *testing.T) {
	a, b := newStubShard(t, "solo"), newStubShard(t, "solo")
	r, _ := testRouter(t, nil, ShardSpec{Primary: a.url()}, ShardSpec{Primary: b.url()})
	h := r.Handler()
	waitRouterReady(t, h)

	events := routerEvents(24, 1000)
	rec := routerPost(t, h, "/ingest", map[string]any{"events": events})
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest: %d %s", rec.Code, rec.Body)
	}
	var resp struct {
		Ingested int `json:"ingested"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Ingested != 24 {
		t.Fatalf("ingested %d, want 24", resp.Ingested)
	}
	// Every event landed on its owner, in request order per shard.
	stubs := []*stubShard{a, b}
	var total int
	for si, s := range stubs {
		_, batches, _ := s.snapshot()
		var got []serve.EventIn
		for _, b := range batches {
			got = append(got, b...)
		}
		total += len(got)
		lastTime := -1.0
		for _, ev := range got {
			if Owner(ev.Src, ev.Dst, 2) != si {
				t.Fatalf("shard %d received foreign pair (%d,%d)", si, ev.Src, ev.Dst)
			}
			if ev.Time < lastTime {
				t.Fatalf("shard %d events out of order", si)
			}
			lastTime = ev.Time
		}
	}
	if total != 24 {
		t.Fatalf("shards received %d events total, want 24", total)
	}
}

func TestRouterScoreMergesAcrossShards(t *testing.T) {
	a, b := newStubShard(t, "solo"), newStubShard(t, "solo")
	r, _ := testRouter(t, nil, ShardSpec{Primary: a.url()}, ShardSpec{Primary: b.url()})
	h := r.Handler()
	waitRouterReady(t, h)

	pairs := []map[string]any{}
	for i := 0; i < 16; i++ {
		pairs = append(pairs, map[string]any{"src": i, "dst": 20 + i})
	}
	rec := routerPost(t, h, "/score", map[string]any{"pairs": pairs, "time": 2000})
	if rec.Code != http.StatusOK {
		t.Fatalf("score: %d %s", rec.Code, rec.Body)
	}
	var resp struct {
		Scores []float64 `json:"scores"`
		Stale  bool      `json:"stale"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Stale {
		t.Fatal("both primaries healthy; scores must be fresh")
	}
	if len(resp.Scores) != 16 {
		t.Fatalf("got %d scores, want 16", len(resp.Scores))
	}
	for i, s := range resp.Scores {
		if want := float64(i)*1000 + float64(20+i); s != want {
			t.Fatalf("score %d = %v, want %v (merge order broken)", i, s, want)
		}
	}
}

// TestRouterScore5xxCounter: router_score_5xx_total counts the router's
// server errors only — the availability SLI's numerator (DESIGN.md §16). A
// shard's 429 passed through, or a bad request, spends no error budget.
func TestRouterScore5xxCounter(t *testing.T) {
	prim := newStubShard(t, "solo")
	r, reg := testRouter(t, nil, ShardSpec{Primary: prim.url()})
	h := r.Handler()
	waitRouterReady(t, h)
	score := map[string]any{"pairs": []map[string]any{{"src": 1, "dst": 2}}, "time": 1}
	for _, step := range []struct {
		shardStatus int
		body        any
		want        int
		want5xx     int64
	}{
		{0, map[string]any{"pairs": []any{}}, http.StatusBadRequest, 0},
		{http.StatusTooManyRequests, score, http.StatusTooManyRequests, 0},
		{http.StatusServiceUnavailable, score, http.StatusServiceUnavailable, 1},
	} {
		prim.mu.Lock()
		prim.scoreStatus = step.shardStatus
		prim.mu.Unlock()
		if rec := routerPost(t, h, "/score", step.body); rec.Code != step.want {
			t.Fatalf("shard status %d: router answered %d %s, want %d", step.shardStatus, rec.Code, rec.Body, step.want)
		}
		if got := reg.Counter("router_score_5xx_total").Value(); got != step.want5xx {
			t.Fatalf("after a %d: router_score_5xx_total = %d, want %d", step.want, got, step.want5xx)
		}
	}
}

func TestRouterFailoverAndHintedHandoff(t *testing.T) {
	prim, stby := newStubShard(t, "primary"), newStubShard(t, "standby")
	inj := faultinject.New()
	// First promote attempt fails; the router's retry must absorb it.
	inj.ArmErr(faultinject.PointPromote, fmt.Errorf("injected promote failure"), 1)
	// A wider miss window than the default keeps the outage observable: the
	// hinted ingests and the stale score below must land before failover.
	r, reg := testRouterCfg(t, RouterConfig{
		Shards:        []ShardSpec{{Primary: prim.url(), Standby: stby.url()}},
		ProbeInterval: 50 * time.Millisecond,
		ProbeMisses:   3,
		Injector:      inj,
	})
	h := r.Handler()
	waitRouterReady(t, h)

	if rec := routerPost(t, h, "/ingest", map[string]any{"events": routerEvents(4, 1000)}); rec.Code != http.StatusOK {
		t.Fatalf("healthy ingest: %d %s", rec.Code, rec.Body)
	}

	prim.Kill()

	// Writes during the outage are hinted, never 5xx.
	for i := 0; i < 2; i++ {
		rec := routerPost(t, h, "/ingest", map[string]any{"events": routerEvents(4, float64(2000+100*i))})
		if rec.Code != http.StatusAccepted {
			t.Fatalf("outage ingest %d: status %d %s, want 202", i, rec.Code, rec.Body)
		}
	}
	// Reads survive via the standby, marked stale.
	rec := routerPost(t, h, "/score", map[string]any{"pairs": []map[string]any{{"src": 1, "dst": 21}}, "time": 3000})
	if rec.Code != http.StatusOK {
		t.Fatalf("outage score: %d %s", rec.Code, rec.Body)
	}
	var sc struct {
		Stale bool `json:"stale"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &sc); err != nil {
		t.Fatal(err)
	}
	if !sc.Stale {
		t.Fatal("score served during outage must be marked stale")
	}

	// Failover: promote fires (after one injected failure), hints flush.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if reg.Counter("router_failovers_total").Value() >= 1 &&
			reg.Counter("router_hint_flushed_total").Value() >= 2 {
			break
		}
		if !time.Now().Before(deadline) {
			t.Fatalf("failover did not complete: failovers=%d flushed=%d",
				reg.Counter("router_failovers_total").Value(),
				reg.Counter("router_hint_flushed_total").Value())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := inj.Fired(faultinject.PointPromote); n != 1 {
		t.Fatalf("promote fault fired %d times, want 1", n)
	}
	if n := reg.Counter("router_hint_dropped_total").Value(); n != 0 {
		t.Fatalf("%d hints dropped during clean failover", n)
	}
	bids, batches, promotes := stby.snapshot()
	if promotes < 1 {
		t.Fatalf("standby promote calls = %d", promotes)
	}
	if len(batches) != 2 {
		t.Fatalf("standby received %d hinted batches, want 2", len(batches))
	}
	// Hints replay in bid order under the bids assigned at first send.
	if len(bids) != 2 || bids[0] >= bids[1] {
		t.Fatalf("hinted bids out of order: %v", bids)
	}

	// Post-failover writes go straight to the new primary.
	if rec := routerPost(t, h, "/ingest", map[string]any{"events": routerEvents(4, 5000)}); rec.Code != http.StatusOK {
		t.Fatalf("post-failover ingest: %d %s", rec.Code, rec.Body)
	}
	bids, _, _ = stby.snapshot()
	for i := 1; i < len(bids); i++ {
		if bids[i] <= bids[i-1] {
			t.Fatalf("bids not strictly increasing: %v", bids)
		}
	}
}

func TestRouterHintOverflowSheds(t *testing.T) {
	// A shard that was never up: reserve an address and leave it dead.
	dead := newStubShard(t, "solo")
	dead.Kill()
	r, reg := testRouter(t, nil, ShardSpec{Primary: dead.url()})
	h := r.Handler()
	// Let the prober mark it dead so ingest takes the hint path.
	time.Sleep(60 * time.Millisecond)

	codes := []int{}
	for i := 0; i < 10; i++ {
		rec := routerPost(t, h, "/ingest", map[string]any{"events": routerEvents(2, float64(1000+100*i))})
		codes = append(codes, rec.Code)
	}
	accepted, shed := 0, 0
	for _, c := range codes {
		switch c {
		case http.StatusAccepted:
			accepted++
		case http.StatusServiceUnavailable:
			shed++
		default:
			t.Fatalf("unexpected status %d (codes %v)", c, codes)
		}
	}
	if accepted != 8 || shed != 2 { // HintDepth is 8 in testRouter
		t.Fatalf("accepted=%d shed=%d, want 8/2 (codes %v)", accepted, shed, codes)
	}
	if n := reg.Counter("router_hint_dropped_total").Value(); n != 2 {
		t.Fatalf("hint_dropped=%d, want 2", n)
	}
}

func TestRouterResyncsBidFloorFromStats(t *testing.T) {
	s := newStubShard(t, "solo")
	s.mu.Lock()
	s.lastBid = 50 // pretend a previous router already pushed 50 batches
	s.mu.Unlock()
	r, _ := testRouter(t, nil, ShardSpec{Primary: s.url()})
	h := r.Handler()
	waitRouterReady(t, h)

	// Give the prober a beat to complete the /stats sync.
	deadline := time.Now().Add(2 * time.Second)
	for {
		r.shards[0].mu.Lock()
		synced := r.shards[0].bidSynced
		r.shards[0].mu.Unlock()
		if synced {
			break
		}
		if !time.Now().Before(deadline) {
			t.Fatal("bid floor never synced")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if rec := routerPost(t, h, "/ingest", map[string]any{"events": routerEvents(2, 1000)}); rec.Code != http.StatusOK {
		t.Fatalf("ingest: %d %s", rec.Code, rec.Body)
	}
	bids, _, _ := s.snapshot()
	if len(bids) != 1 || bids[0] != 51 {
		t.Fatalf("restarted router must resume above the shard's bid floor; got %v, want [51]", bids)
	}
}

func TestRouterProbeTimeoutFaultTriggersFailover(t *testing.T) {
	prim, stby := newStubShard(t, "primary"), newStubShard(t, "standby")
	inj := faultinject.New()
	// Member probes run in member order each round; with one shard, odd hits
	// are the primary. Two forced misses cross ProbeMisses=2.
	inj.ArmErr(faultinject.PointProbeTimeout, fmt.Errorf("injected probe timeout"), 1, 3)
	r, reg := testRouter(t, inj, ShardSpec{Primary: prim.url(), Standby: stby.url()})
	_ = r
	deadline := time.Now().Add(5 * time.Second)
	for reg.Counter("router_failovers_total").Value() < 1 {
		if !time.Now().Before(deadline) {
			t.Fatalf("probe-timeout fault did not trigger failover (fired %d)",
				inj.Fired(faultinject.PointProbeTimeout))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := inj.Fired(faultinject.PointProbeTimeout); n != 2 {
		t.Fatalf("probe fault fired %d times, want 2", n)
	}
	if _, _, promotes := stby.snapshot(); promotes < 1 {
		t.Fatal("standby was never promoted")
	}
	// The healthy-but-slandered old primary is still a fine read target; the
	// shard keeps serving with two live members and a new write side.
}
