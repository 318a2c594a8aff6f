package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/cascade-ml/cascade/internal/batching"
	"github.com/cascade-ml/cascade/internal/graph/datagen"
	"github.com/cascade-ml/cascade/internal/models"
	"github.com/cascade-ml/cascade/internal/obs"
	"github.com/cascade-ml/cascade/internal/serve"
	"github.com/cascade-ml/cascade/internal/train"
)

// traceServe builds a minimally-trained serve.Server wired to a tracer whose
// Chrome output lands in buf — one simulated cluster process.
func traceServe(t *testing.T, buf *bytes.Buffer) *serve.Server {
	t.Helper()
	ds := datagen.Wiki.Generate(datagen.Options{Scale: 0.002, Seed: 91, FeatDimOverride: 4, MinEvents: 300})
	tr, val := ds.Split(0.8)
	m := models.MustNew("JODIE", ds, 8, 4, 3)
	trainer, err := train.NewTrainer(train.Config{
		Model: m, Sched: batching.NewFixed("TGL", tr.NumEvents(), 50),
		Data: tr, Val: val, ValBatch: 50, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	trainer.Train(1)
	cw := obs.NewChromeTrace(buf)
	t.Cleanup(func() { cw.Close() })
	tracer := obs.NewTracer(obs.TracerOptions{Chrome: cw})
	return serve.New(m, trainer.Predictor(), ds.NumNodes, serve.WithTracer(tracer))
}

// TestTraceSmoke is the observability-plane gate: one request through a traced
// 2-shard router must yield ONE distributed trace-id that appears in the
// router's Chrome trace and in every shard's, and the three per-process
// files must merge onto one timeline.
func TestTraceSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("trains two models")
	}
	var shardBuf0, shardBuf1, routerBuf bytes.Buffer
	ts0 := httptest.NewServer(traceServe(t, &shardBuf0).Handler())
	defer ts0.Close()
	ts1 := httptest.NewServer(traceServe(t, &shardBuf1).Handler())
	defer ts1.Close()

	routerChrome := obs.NewChromeTrace(&routerBuf)
	routerTracer := obs.NewTracer(obs.TracerOptions{Chrome: routerChrome})
	r, _ := testRouterCfg(t, RouterConfig{
		Shards:        []ShardSpec{{Primary: ts0.URL}, {Primary: ts1.URL}},
		ProbeInterval: 10 * time.Millisecond,
		ProbeMisses:   2,
		Tracer:        routerTracer,
	})
	h := r.Handler()
	waitRouterReady(t, h)

	// Enough distinct pairs that rendezvous hashing lands events on BOTH
	// shards; one ingest + one score, each a root span on the router.
	rec := routerPost(t, h, "/ingest", map[string]any{"events": routerEvents(40, 3e9)})
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest status %d: %s", rec.Code, rec.Body.String())
	}
	pairs := make([]map[string]any, 8)
	for i := range pairs {
		pairs[i] = map[string]any{"src": i, "dst": 20 + i}
	}
	rec = routerPost(t, h, "/score", map[string]any{"pairs": pairs, "time": 4e9})
	if rec.Code != http.StatusOK {
		t.Fatalf("score status %d: %s", rec.Code, rec.Body.String())
	}
	routerChrome.Close()
	// The router's probe loop keeps producing shard spans; Close waits for
	// in-flight handlers, so nothing writes the buffers while they are read.
	ts0.Close()
	ts1.Close()

	merged, rep, err := obs.MergeChromeTraces([]obs.TraceFile{
		{Name: "router.trace", Data: routerBuf.Bytes()},
		{Name: "shard0.trace", Data: shardBuf0.Bytes()},
		{Name: "shard1.trace", Data: shardBuf1.Bytes()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) == 0 {
		t.Fatal("merged trace empty")
	}
	var evs []map[string]any
	if err := json.Unmarshal(merged, &evs); err != nil {
		t.Fatalf("merged output not valid JSON: %v", err)
	}

	// At least one trace-id must span the router and both shards — the
	// /ingest (or /score) request fanned out to every process.
	all3 := 0
	cross := 0
	for tid, procs := range rep.Traces {
		if len(procs) >= 2 {
			cross++
		}
		if len(procs) == 3 {
			all3++
		}
		if len(procs) > 0 && procs[0] != "router.trace" &&
			procs[len(procs)-1] != "router.trace" {
			// Sorted names: router.trace sorts before shardN.trace, so a
			// trace that touched the router has it first.
			t.Errorf("trace %s spans %v without the router", tid, procs)
		}
	}
	if all3 == 0 {
		t.Fatalf("no trace-id spans router + both shards; traces: %v", rep.Traces)
	}
	if cross < 2 {
		t.Fatalf("want >= 2 cross-process traces (ingest and score), got %d: %v", cross, rep.Traces)
	}
	if rep.Offsets["router.trace"] != 0 {
		t.Fatalf("router is not the offset reference: %+v", rep.Offsets)
	}
}
