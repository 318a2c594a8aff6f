package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/cascade-ml/cascade/internal/batching"
	"github.com/cascade-ml/cascade/internal/graph/datagen"
	"github.com/cascade-ml/cascade/internal/models"
	"github.com/cascade-ml/cascade/internal/train"
)

func testServer(t *testing.T) (*Server, int) {
	t.Helper()
	ds := datagen.Wiki.Generate(datagen.Options{Scale: 0.002, Seed: 91, FeatDimOverride: 4, MinEvents: 600})
	tr, val := ds.Split(0.8)
	m := models.MustNew("JODIE", ds, 8, 4, 3)
	trainer, err := train.NewTrainer(train.Config{
		Model: m, Sched: batching.NewFixed("TGL", tr.NumEvents(), 50),
		Data: tr, Val: val, ValBatch: 50, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	trainer.Train(2)
	return New(m, trainer.Predictor(), ds.NumNodes), ds.NumNodes
}

func post(t *testing.T, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", path, bytes.NewReader(b))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec
}

func TestIngestThenScore(t *testing.T) {
	s, _ := testServer(t)
	h := s.Handler()

	rec := post(t, h, "/ingest", map[string]any{
		"events": []map[string]any{
			{"src": 0, "dst": 60, "time": 1e7},
			{"src": 1, "dst": 61, "time": 1e7 + 1},
		},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest status %d: %s", rec.Code, rec.Body)
	}

	rec = post(t, h, "/score", map[string]any{
		"pairs": []map[string]any{{"src": 0, "dst": 60}, {"src": 1, "dst": 5}},
		"time":  1e7 + 2,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("score status %d: %s", rec.Code, rec.Body)
	}
	var resp struct {
		Scores []float64 `json:"scores"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Scores) != 2 {
		t.Fatalf("scores %v", resp.Scores)
	}

	req := httptest.NewRequest("GET", "/stats", nil)
	statRec := httptest.NewRecorder()
	h.ServeHTTP(statRec, req)
	var stats map[string]any
	if err := json.Unmarshal(statRec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats["ingested"].(float64) != 2 || stats["scored"].(float64) != 2 {
		t.Fatalf("stats %v", stats)
	}
}

func TestIngestValidation(t *testing.T) {
	s, n := testServer(t)
	h := s.Handler()
	cases := []map[string]any{
		{},                               // no events
		{"events": []map[string]any{{}}}, // self loop 0→0
		{"events": []map[string]any{{"src": 0, "dst": n + 5, "time": 1}}}, // out of range
		{"events": []map[string]any{{"src": 0, "dst": 1, "time": -5e18}}}, // before last time? time must be ≥ lastTime after training? lastTime starts 0
	}
	for i, c := range cases {
		rec := post(t, h, "/ingest", c)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("case %d accepted: %d %s", i, rec.Code, rec.Body)
		}
	}
	// Out-of-order within one request.
	rec := post(t, h, "/ingest", map[string]any{"events": []map[string]any{
		{"src": 0, "dst": 1, "time": 100}, {"src": 1, "dst": 2, "time": 50},
	}})
	if rec.Code != http.StatusBadRequest {
		t.Fatal("out-of-order ingest accepted")
	}
}

func TestScoreValidation(t *testing.T) {
	s, n := testServer(t)
	h := s.Handler()
	if rec := post(t, h, "/score", map[string]any{}); rec.Code != http.StatusBadRequest {
		t.Fatal("empty score accepted")
	}
	rec := post(t, h, "/score", map[string]any{"pairs": []map[string]any{{"src": 0, "dst": n + 1}}})
	if rec.Code != http.StatusBadRequest {
		t.Fatal("out-of-range pair accepted")
	}
}

func TestBadJSONRejected(t *testing.T) {
	s, _ := testServer(t)
	h := s.Handler()
	req := httptest.NewRequest("POST", "/ingest", bytes.NewReader([]byte("{nope")))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad JSON status %d", rec.Code)
	}
}

func TestIngestMovesScores(t *testing.T) {
	// Scores for a pair should change once fresh interactions are
	// ingested (memories move).
	s, _ := testServer(t)
	h := s.Handler()
	score := func() float64 {
		rec := post(t, h, "/score", map[string]any{
			"pairs": []map[string]any{{"src": 2, "dst": 55}}, "time": 2e7,
		})
		var resp struct {
			Scores []float64 `json:"scores"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp.Scores[0]
	}
	before := score()
	for i := 0; i < 5; i++ {
		post(t, h, "/ingest", map[string]any{"events": []map[string]any{
			{"src": 2, "dst": 55, "time": 2.1e7 + float64(i)},
		}})
	}
	after := score()
	if before == after {
		t.Fatal("ingesting interactions did not move the score")
	}
}

func TestScoreLeavesStateUnchanged(t *testing.T) {
	// /score is a read: it must not advance memories, drain the pending
	// message queue, or consume RNG state. Regression test for the handler
	// previously calling BeginBatch without restoring — every score request
	// permanently applied the pending memory updates.
	s, _ := testServer(t)
	h := s.Handler()
	// Queue pending messages so BeginBatch has something to apply.
	rec := post(t, h, "/ingest", map[string]any{"events": []map[string]any{
		{"src": 3, "dst": 40, "time": 3e7},
		{"src": 4, "dst": 41, "time": 3e7 + 1},
	}})
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest status %d: %s", rec.Code, rec.Body)
	}
	before := s.model.Snapshot().Fingerprint()
	for i := 0; i < 3; i++ {
		rec = post(t, h, "/score", map[string]any{
			"pairs": []map[string]any{{"src": 3, "dst": 40}, {"src": 7, "dst": 9}},
			"time":  3e7 + 2,
		})
		if rec.Code != http.StatusOK {
			t.Fatalf("score status %d: %s", rec.Code, rec.Body)
		}
	}
	after := s.model.Snapshot().Fingerprint()
	if before != after {
		t.Fatalf("score mutated stream state: fingerprint %x -> %x", before, after)
	}
}

func TestScoreSeesPendingUpdates(t *testing.T) {
	// The read-only path must still score against the *freshest* state:
	// pending messages are applied to the working copy before embedding,
	// so a score at time T reflects events ingested just before it.
	s, _ := testServer(t)
	h := s.Handler()
	score := func() float64 {
		rec := post(t, h, "/score", map[string]any{
			"pairs": []map[string]any{{"src": 6, "dst": 50}}, "time": 4e7,
		})
		if rec.Code != http.StatusOK {
			t.Fatalf("score status %d: %s", rec.Code, rec.Body)
		}
		var resp struct {
			Scores []float64 `json:"scores"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp.Scores[0]
	}
	before := score()
	for i := 0; i < 5; i++ {
		rec := post(t, h, "/ingest", map[string]any{"events": []map[string]any{
			{"src": 6, "dst": 50, "time": 3.5e7 + float64(i)},
		}})
		if rec.Code != http.StatusOK {
			t.Fatalf("ingest status %d: %s", rec.Code, rec.Body)
		}
	}
	if before == score() {
		t.Fatal("score ignored freshly ingested events")
	}
}

func TestOversizedBodyRejected(t *testing.T) {
	s, _ := testServer(t)
	h := s.Handler()
	big := bytes.Repeat([]byte("a"), MaxBodyBytes+16)
	body := append([]byte(`{"events":[{"src":0,"dst":1,"time":"`), big...)
	body = append(body, []byte(`"}]}`)...)
	req := httptest.NewRequest("POST", "/ingest", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: want 413, got %d: %s", rec.Code, rec.Body)
	}
}

func TestContentTypeEnforced(t *testing.T) {
	s, _ := testServer(t)
	h := s.Handler()
	body := []byte(`{"pairs":[{"src":0,"dst":1}],"time":1}`)

	for _, ct := range []string{"text/plain", "application/xml", "multipart/form-data; boundary=x"} {
		req := httptest.NewRequest("POST", "/score", bytes.NewReader(body))
		req.Header.Set("Content-Type", ct)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusUnsupportedMediaType {
			t.Fatalf("content type %q: want 415, got %d", ct, rec.Code)
		}
	}
	// JSON media types (with parameters) and an absent header are accepted.
	for _, ct := range []string{"application/json", "application/json; charset=utf-8", ""} {
		req := httptest.NewRequest("POST", "/score", bytes.NewReader(body))
		if ct != "" {
			req.Header.Set("Content-Type", ct)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("content type %q: want 200, got %d: %s", ct, rec.Code, rec.Body)
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s, _ := testServer(t)
	h := s.Handler()
	post(t, h, "/ingest", map[string]any{"events": []map[string]any{
		{"src": 0, "dst": 60, "time": 1e7},
	}})
	post(t, h, "/score", map[string]any{
		"pairs": []map[string]any{{"src": 0, "dst": 60}}, "time": 1e7 + 1,
	})
	post(t, h, "/score", map[string]any{}) // 400 → error counter

	rec := get(t, h, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	out := rec.Body.String()
	for _, want := range []string{
		"# TYPE serve_ingest_requests_total counter",
		"serve_ingest_requests_total 1",
		"serve_score_requests_total 2",
		"serve_score_errors_total 1",
		"serve_events_ingested_total 1",
		"serve_pairs_scored_total 1",
		"# TYPE serve_ingest_seconds histogram",
		`serve_ingest_seconds_bucket{le="+Inf"} 1`,
		"serve_score_seconds_count 2",
		"serve_score_seconds_sum",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q\n%s", want, out)
		}
	}
}

func TestServeConcurrent(t *testing.T) {
	// Hammer every route from parallel goroutines; run with -race. Ingest
	// times collide across goroutines, so 400 (out-of-order) responses are
	// expected — anything else is a bug.
	s, _ := testServer(t)
	h := s.Handler()
	var wg sync.WaitGroup
	var next atomic.Int64
	next.Store(1e8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				ts := float64(next.Add(10))
				rec := post(t, h, "/ingest", map[string]any{"events": []map[string]any{
					{"src": 0, "dst": 60, "time": ts},
				}})
				if rec.Code != http.StatusOK && rec.Code != http.StatusBadRequest {
					t.Errorf("ingest status %d: %s", rec.Code, rec.Body)
				}
			}
		}()
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				rec := post(t, h, "/score", map[string]any{
					"pairs": []map[string]any{{"src": 1, "dst": 61}}, "time": 9e8,
				})
				if rec.Code != http.StatusOK {
					t.Errorf("score status %d: %s", rec.Code, rec.Body)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if rec := get(t, h, "/metrics"); rec.Code != http.StatusOK {
				t.Errorf("metrics status %d", rec.Code)
			}
			if rec := get(t, h, "/stats"); rec.Code != http.StatusOK {
				t.Errorf("stats status %d", rec.Code)
			}
		}
	}()
	wg.Wait()
}
