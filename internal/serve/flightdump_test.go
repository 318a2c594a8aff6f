package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/cascade-ml/cascade/internal/load"
	"github.com/cascade-ml/cascade/internal/obs"
	"github.com/cascade-ml/cascade/internal/resilience/faultinject"
)

// TestBreakerOpenFlightDump: the closed→open transition of the scoring
// breaker must dump the span ring exactly once (reason "breaker_open"),
// with the preceding requests' spans inside. Re-opening from half-open
// after the cooldown produces a second, separate dump.
func TestBreakerOpenFlightDump(t *testing.T) {
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
	// Stall scores 1-3: two misses trip the breaker, the third re-opens it
	// from half-open after the cooldown.
	inj.ArmDelay(faultinject.PointServeSlowScore, 120*time.Millisecond, 1, 2, 3)
	reg := obs.NewRegistry()
	dir := t.TempDir()
	rec := obs.NewFlightRecorder(dir, 16, reg)
	rec.SetClock(func() time.Time {
		return time.Date(2026, 8, 5, 14, 0, 0, 0, time.UTC)
	})
	tracer := obs.NewTracer(obs.TracerOptions{Flight: rec})
	s := buildServer(t, overloadData(t),
		WithRegistry(reg), WithInjector(inj),
		WithTracer(tracer), WithFlightRecorder(rec),
		WithBreaker(load.BreakerConfig{FailureThreshold: 2, Cooldown: 10 * time.Second, Now: now}))
	h := s.Handler()

	slowScore := func() {
		req := httptest.NewRequest("POST", "/score", strings.NewReader(`{"pairs":[{"src":1,"dst":61}],"time":1e7}`))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Request-Timeout-Ms", "30")
		recw := httptest.NewRecorder()
		h.ServeHTTP(recw, req)
		if recw.Code != http.StatusServiceUnavailable {
			t.Fatalf("deadline-missed score: %d %s, want 503", recw.Code, recw.Body)
		}
	}
	slowScore()
	slowScore()
	if st := s.breaker.State(); st != load.BreakerOpen {
		t.Fatalf("breaker %v, want open", st)
	}

	files := func() []string {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, e := range entries {
			if strings.HasPrefix(e.Name(), "flight-") {
				out = append(out, e.Name())
			}
		}
		return out
	}
	got := files()
	if len(got) != 1 {
		t.Fatalf("dump files %v, want exactly one after the open transition", got)
	}
	if !strings.Contains(got[0], "breaker_open") {
		t.Fatalf("dump file %q does not carry the trigger reason", got[0])
	}
	raw, err := os.ReadFile(filepath.Join(dir, got[0]))
	if err != nil {
		t.Fatal(err)
	}
	var d struct {
		Reason string `json:"reason"`
		Time   string `json:"time"`
		Spans  []struct {
			Name  string         `json:"name"`
			Attrs map[string]any `json:"attrs"`
		} `json:"spans"`
		Metrics map[string]float64 `json:"metrics"`
	}
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatalf("dump not valid JSON: %v", err)
	}
	if d.Reason != "breaker_open" {
		t.Fatalf("reason %q", d.Reason)
	}
	if d.Time != "2026-08-05T14:00:00Z" {
		t.Fatalf("dump time %q not from the injected clock", d.Time)
	}
	if len(d.Spans) == 0 {
		t.Fatal("dump has no spans — the first missed request's span should be retained")
	}
	if got := reg.Counter("serve_flight_dumps_total").Value(); got != 1 {
		t.Fatalf("serve_flight_dumps_total %d, want 1", got)
	}

	// Cooldown elapses, the half-open probe stalls too → re-open → exactly
	// one more dump.
	clk.mu.Lock()
	clk.t = clk.t.Add(11 * time.Second)
	clk.mu.Unlock()
	slowScore()
	if got := files(); len(got) != 2 {
		t.Fatalf("dump files %v, want two after the re-open", got)
	}
}
