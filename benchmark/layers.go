package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"time"

	"github.com/cascade-ml/cascade/internal/cluster"
	"github.com/cascade-ml/cascade/internal/core"
	"github.com/cascade-ml/cascade/internal/load"
	"github.com/cascade-ml/cascade/internal/obs"
	"github.com/cascade-ml/cascade/internal/serve"
	"github.com/cascade-ml/cascade/internal/stats"
	"github.com/cascade-ml/cascade/internal/tensor"
	"github.com/cascade-ml/cascade/internal/wal"
)

// layerStats holds the per-layer numbers a traced run measures by calling each
// layer's public functions directly, on the quiesced deployment or standalone.
// A layer the workload bypasses keeps its zeros.
type layerStats struct {
	// serve, on members[0] (the first primary)
	handlerScoreUs, handlerIngestUs     float64
	loopbackScoreUs, loopbackIngestUs   float64
	decodeScoreUs, decodeIngestUs       float64
	encodeScoreUs                       float64
	acquireNs                           float64
	snapshotUs, beginUs, embedUs        float64
	restoreUs, predictorUs, applyUs     float64
	stateBytes                          float64
	compactMs                           float64
	walAlwaysUs, walBatchUs, walIntvlUs float64
	// cluster
	routerScoreUs, routerIngestUs float64
	shardScoreUs, shardIngestUs   float64
	shardsTouched, ownerNs        float64
	ackLagMsMean, hintedBatches   float64
	// obs
	counterLookupNs, spanNs, tracerOverhead float64
	// core, tensor
	tableBuildS, profileS float64
	depViolations         float64
	matmul256Us           float64
}

// replays is how many times each quiesced call is repeated; p50 is reported.
func replays(opt options) int {
	if opt.shrunk() {
		return 20
	}
	return 200
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// p50Us times fn n times and returns the median in microseconds.
func p50Us(n int, fn func(i int)) float64 {
	xs := make([]float64, n)
	for i := range xs {
		start := time.Now()
		fn(i)
		xs[i] = us(time.Since(start))
	}
	return median(xs)
}

func postRecorder(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// measureServeLayers replays the request path layer by layer on the idle
// deployment. It runs after the end-state checks, because the ingest replays
// keep consuming the held-out tail (in order, so stream time stays monotone)
// and the direct model calls change state behind the server's counters.
func measureServeLayers(in *instance, enc *bodies, opt options, rec *recorder, out *outcome) (*layerStats, error) {
	ls := &layerStats{}
	n := replays(opt)
	m := in.dep.members[0]
	h := m.srv.Handler()
	var failed error
	note := func(err error) {
		if err != nil && failed == nil {
			failed = err
		}
	}
	nextIngest := func() (int, bool) {
		if in.ingC.take() == nil {
			return 0, false
		}
		return in.ingC.next - 1, true
	}

	// The /score call sequence on the member's model, one span per call: what
	// serve's scorePairs does under the model lock.
	at := in.ds.Events[in.w.TrainEvents+in.ingC.next*eventsPerIngest-1].Time
	var snap, begin, embed, restore, pred []float64
	replayScore := func(i int) {
		pairs := enc.pairs[i%len(enc.pairs)]
		nodes := make([]int32, 0, 2*len(pairs))
		ts := make([]float64, 0, 2*len(pairs))
		for _, p := range pairs {
			nodes = append(nodes, p[0])
		}
		for _, p := range pairs {
			nodes = append(nodes, p[1])
		}
		for range nodes {
			ts = append(ts, at)
		}
		req := uint64(i)
		root := rec.reserve()
		t0 := time.Now()
		st := m.model.Snapshot()
		t1 := time.Now()
		upd := m.model.BeginBatch()
		t2 := time.Now()
		emb := m.model.Embed(nodes, ts)
		t3 := time.Now()
		m.model.Restore(st)
		t4 := time.Now()
		srcIdx, dstIdx := make([]int, len(pairs)), make([]int, len(pairs))
		for j := range pairs {
			srcIdx[j], dstIdx[j] = j, len(pairs)+j
		}
		logits := m.pred.Forward(tensor.ConcatColsT(tensor.GatherRowsT(emb, srcIdx), tensor.GatherRowsT(emb, dstIdx)))
		t5 := time.Now()
		upd.FreeTape(logits)
		rec.add("models.Snapshot", root, req, t0, t1)
		rec.add("models.BeginBatch", root, req, t1, t2)
		rec.add("models.Embed", root, req, t2, t3)
		rec.add("models.Restore", root, req, t3, t4)
		rec.add("nn.predictor", root, req, t4, t5)
		rec.addWithID(root, "score replay", 0, req, t0, time.Now())
		snap, begin, embed = append(snap, us(t1.Sub(t0))), append(begin, us(t2.Sub(t1))), append(embed, us(t3.Sub(t2)))
		restore, pred = append(restore, us(t4.Sub(t3))), append(pred, us(t5.Sub(t4)))
	}

	// Handler on an in-memory recorder — the server's whole request path
	// without a socket — against the same body over loopback straight to the
	// member: the difference is the transport (net/http server + client + TCP).
	// The two and the model replay are alternated, so that drift in the state
	// or the heap falls on all three alike.
	direct := newStream(m.http.url, "score")
	hs, lb := make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		body := enc.score[i%len(enc.score)]
		start := time.Now()
		r := postRecorder(h, "/score", body)
		mid := time.Now()
		rec.add("serve.Handler /score", 0, uint64(i), start, mid)
		if r.Code != http.StatusOK {
			note(fmt.Errorf("handler /score: %d %s", r.Code, r.Body.String()))
		}
		note(direct.post(body))
		hs[i], lb[i] = us(mid.Sub(start)), us(time.Since(mid))
		replayScore(i)
	}
	direct.close()
	ls.handlerScoreUs, ls.loopbackScoreUs = median(hs), median(lb)

	// encoding/json into the wire structs, and the /score answer back out.
	ls.decodeScoreUs = p50Us(n, func(i int) {
		var req struct {
			Pairs []serve.PairIn `json:"pairs"`
			Time  float64        `json:"time"`
		}
		note(json.NewDecoder(bytes.NewReader(enc.score[i%len(enc.score)])).Decode(&req))
	})
	ls.decodeIngestUs = p50Us(n, func(i int) {
		var req struct {
			Events []serve.EventIn `json:"events"`
			Bid    uint64          `json:"bid,omitempty"`
		}
		note(json.NewDecoder(bytes.NewReader(enc.ingest[i%len(enc.ingest)])).Decode(&req))
	})
	scores := make([]float32, pairsPerScore)
	ls.encodeScoreUs = p50Us(n, func(int) {
		note(json.NewEncoder(io.Discard).Encode(map[string]any{"scores": scores, "stale": false}))
	})

	// Uncontended admission: Acquire + release with cascade-serve's limits.
	ctrl := load.NewController(load.Limits{MaxInflight: 16, QueueDepth: 64}, obs.NewRegistry())
	const acquires = 20000
	start := time.Now()
	for i := 0; i < acquires; i++ {
		release, err := ctrl.Acquire(context.Background())
		if err != nil {
			note(err)
			break
		}
		release()
	}
	ls.acquireNs = float64(time.Since(start).Nanoseconds()) / acquires

	ls.snapshotUs, ls.beginUs, ls.embedUs = median(snap), median(begin), median(embed)
	ls.restoreUs, ls.predictorUs = median(restore), median(pred)
	for part, b := range m.model.MemoryBytes() {
		if part != "model" && part != "edge_feature" {
			ls.stateBytes += float64(b)
		}
	}
	// The same pair for /ingest, each call on the next held-out batch.
	direct = newStream(m.http.url, "ingest")
	hi, li := make([]float64, 0, n), make([]float64, 0, n)
	for i := 0; i < n; i++ {
		k1, ok1 := nextIngest()
		k2, ok2 := nextIngest()
		if !ok1 || !ok2 {
			break
		}
		start := time.Now()
		r := postRecorder(h, "/ingest", enc.ingest[k1])
		mid := time.Now()
		rec.add("serve.Handler /ingest", 0, uint64(i), start, mid)
		if r.Code != http.StatusOK {
			note(fmt.Errorf("handler /ingest: %d %s", r.Code, r.Body.String()))
		}
		note(direct.post(enc.ingest[k2]))
		hi, li = append(hi, us(mid.Sub(start))), append(li, us(time.Since(mid)))
	}
	direct.close()
	ls.handlerIngestUs, ls.loopbackIngestUs = median(hi), median(li)
	// The /ingest state change on the model: apply pending, queue the batch.
	ls.applyUs = p50Us(n, func(i int) {
		k, ok := nextIngest()
		if !ok {
			return
		}
		start := time.Now()
		upd := m.model.BeginBatch()
		m.model.EndBatch(enc.events[k])
		upd.FreeTape()
		rec.add("models.BeginBatch+EndBatch", 0, uint64(i), start, time.Now())
	})

	if in.w.Topology != topoSolo {
		var compact []float64
		for i := 0; i < 3; i++ {
			compact = append(compact, us(rec.timed("serve.CompactWAL", 0, uint64(i), m.srv.CompactWAL))/1000)
		}
		ls.compactMs = median(compact)
		var err error
		if ls.walAlwaysUs, ls.walBatchUs, ls.walIntvlUs, err = measureWAL(filepath.Join(in.dep.dir, "walbench"), n, rec); err != nil {
			return nil, err
		}
	}
	if in.w.Topology == topoCluster {
		measureCluster(in, enc, n, rec, ls, note, nextIngest)
	}
	if err := measureObs(in, enc, n, ls, note); err != nil {
		return nil, err
	}
	if failed != nil {
		out.problem("per-layer replay: %v", failed)
	}
	return ls, nil
}

// measureWAL appends ingest-sized payloads to a fresh log under each sync
// policy. "batch" is what /ingest pays (one fsync per request); always −
// interval isolates the fsync.
func measureWAL(dir string, n int, rec *recorder) (always, batch, interval float64, err error) {
	payload := make([]byte, 16+eventsPerIngest*16) // serve's batch header + 16 B per event
	rand.New(rand.NewSource(1)).Read(payload)
	run := func(policy wal.SyncPolicy) (float64, error) {
		log, _, err := wal.Open(wal.Options{Dir: filepath.Join(dir, policy.String()), Sync: policy})
		if err != nil {
			return 0, err
		}
		var appendErr error
		p50 := p50Us(n, func(i int) {
			start := time.Now()
			if _, err := log.Append(payload); err != nil && appendErr == nil {
				appendErr = err
			}
			rec.add("wal.Append "+policy.String(), 0, uint64(i), start, time.Now())
		})
		if err := log.Close(); err != nil && appendErr == nil {
			appendErr = err
		}
		return p50, appendErr
	}
	if always, err = run(wal.SyncAlways); err != nil {
		return
	}
	if batch, err = run(wal.SyncBatch); err != nil {
		return
	}
	interval, err = run(wal.SyncInterval)
	return
}

// measureCluster times the router's handler against the same sub-requests
// sent straight to the owning primaries over loopback; the difference is what
// the router adds (decode, split, re-encode, merge, serial fan-out).
func measureCluster(in *instance, enc *bodies, n int, rec *recorder, ls *layerStats, note func(error), nextIngest func() (int, bool)) {
	d := in.dep
	type sub struct {
		shard int
		body  []byte
	}
	splitScore := func(pairs [][2]int32) []sub {
		parts := make([][]serve.PairIn, len(d.shards))
		for _, p := range pairs {
			s := cluster.Owner(p[0], p[1], len(d.shards))
			parts[s] = append(parts[s], serve.PairIn{Src: p[0], Dst: p[1]})
		}
		var subs []sub
		for s, part := range parts {
			if len(part) > 0 {
				body, _ := json.Marshal(map[string]any{"pairs": part, "time": 0})
				subs = append(subs, sub{s, body})
			}
		}
		return subs
	}
	clients := make([]*http.Client, len(d.shards))
	for i := range clients {
		clients[i] = &http.Client{Timeout: requestTimeout}
		defer clients[i].CloseIdleConnections()
	}
	send := func(s sub, path string) {
		resp, err := clients[s.shard].Post(d.shards[s.shard].primary.http.url+path, "application/json", bytes.NewReader(s.body))
		if err != nil {
			note(err)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			note(fmt.Errorf("direct %s to shard %d: status %d", path, s.shard, resp.StatusCode))
		}
	}

	var touched float64
	ls.routerScoreUs = p50Us(n, func(i int) {
		start := time.Now()
		r := postRecorder(d.front, "/score", enc.score[i%len(enc.score)])
		rec.add("cluster.Router /score", 0, uint64(i), start, time.Now())
		if r.Code != http.StatusOK {
			note(fmt.Errorf("router /score: %d %s", r.Code, r.Body.String()))
		}
	})
	scoreSubs := make([][]sub, n)
	for i := range scoreSubs {
		scoreSubs[i] = splitScore(enc.pairs[i%len(enc.pairs)])
		touched += float64(len(scoreSubs[i]))
	}
	ls.shardsTouched = touched / float64(n)
	ls.shardScoreUs = p50Us(n, func(i int) {
		for _, s := range scoreSubs[i] {
			send(s, "/score")
		}
	})

	var lag []float64
	ls.routerIngestUs = p50Us(n, func(i int) {
		k, ok := nextIngest()
		if !ok {
			return
		}
		start := time.Now()
		r := postRecorder(d.front, "/ingest", enc.ingest[k])
		rec.add("cluster.Router /ingest", 0, uint64(i), start, time.Now())
		if r.Code != http.StatusOK {
			note(fmt.Errorf("router /ingest: %d %s", r.Code, r.Body.String()))
		}
		for _, sh := range d.shards {
			lag = append(lag, sh.primary.reg.Gauge("serve_repl_ack_lag_seconds").Value()*1000)
		}
	})
	ls.ackLagMsMean = stats.Summarize(lag).Mean
	ingestSubs := make([][]sub, 0, n)
	for i := 0; i < n; i++ {
		k, ok := nextIngest()
		if !ok {
			break
		}
		parts := make([][]serve.EventIn, len(d.shards))
		for _, e := range enc.events[k] {
			s := cluster.Owner(e.Src, e.Dst, len(d.shards))
			parts[s] = append(parts[s], serve.EventIn{Src: e.Src, Dst: e.Dst, Time: e.Time})
		}
		var subs []sub
		for s, part := range parts {
			if len(part) > 0 {
				body, _ := json.Marshal(map[string]any{"events": part})
				subs = append(subs, sub{s, body})
			}
		}
		ingestSubs = append(ingestSubs, subs)
	}
	if len(ingestSubs) > 0 {
		ls.shardIngestUs = p50Us(len(ingestSubs), func(i int) {
			for _, s := range ingestSubs[i] {
				send(s, "/ingest")
			}
		})
	}

	const owners = 1_000_000
	var sink int
	start := time.Now()
	for i := 0; i < owners; i++ {
		sink += cluster.Owner(int32(i), int32(i>>3), len(d.shards))
	}
	ls.ownerNs = float64(time.Since(start).Nanoseconds()) / owners
	runtime.KeepAlive(sink)
	ls.hintedBatches = float64(d.routerReg.Counter("router_hinted_total").Value())
}

// measureObs puts the telemetry's own cost on the sheet: a by-name counter
// lookup as the handlers do on every request, one span start/end, and the
// /score handler with a tracer attached against an identical server without.
func measureObs(in *instance, enc *bodies, n int, ls *layerStats, note func(error)) error {
	reg := in.dep.members[0].reg
	const lookups = 1_000_000
	start := time.Now()
	for i := 0; i < lookups; i++ {
		reg.Counter("serve_score_requests_total").Inc()
	}
	ls.counterLookupNs = float64(time.Since(start).Nanoseconds()) / lookups

	chrome := obs.NewChromeTrace(io.Discard)
	defer chrome.Close()
	tracer := obs.NewTracer(obs.TracerOptions{Chrome: chrome})
	const spans = 100_000
	start = time.Now()
	for i := 0; i < spans; i++ {
		sp := tracer.Start("bench", obs.PhaseOther)
		sp.SetInt("i", int64(i))
		sp.End()
	}
	ls.spanNs = float64(time.Since(start).Nanoseconds()) / spans

	// Two fresh servers from the same weights, fed the same batches; only
	// one has a tracer. Alternating the calls spreads drift over both.
	plain, err := newMember(in.run, in.ds.NumNodes, "", nil)
	if err != nil {
		return err
	}
	traced, err := newMember(in.run, in.ds.NumNodes, "", tracer)
	if err != nil {
		return err
	}
	hp, ht := plain.srv.Handler(), traced.srv.Handler()
	for k := 0; k < 50 && k < len(enc.ingest); k++ {
		for _, h := range []http.Handler{hp, ht} {
			if r := postRecorder(h, "/ingest", enc.ingest[k]); r.Code != http.StatusOK {
				note(fmt.Errorf("tracer-overhead ingest: %d", r.Code))
			}
		}
	}
	with, without := make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		body := enc.score[i%len(enc.score)]
		start := time.Now()
		postRecorder(hp, "/score", body)
		mid := time.Now()
		postRecorder(ht, "/score", body)
		without[i], with[i] = us(mid.Sub(start)), us(time.Since(mid))
	}
	if base := median(without); base > 0 {
		ls.tracerOverhead = (median(with) - base) / base
	}
	return nil
}

// measureTrainLayers calls the scheduler's preprocessing directly — the
// dependency-table build and the endurance profiling that NewRun runs inside
// core.NewScheduler — and reads the violation counter the run exported.
func measureTrainLayers(in *instance, opt options, ls *layerStats) {
	if in.run.CascadeScheduler() == nil {
		return
	}
	tr, _ := in.pre.Split(0.8)
	start := time.Now()
	table := core.BuildDependencyTable(tr.Events, tr.NumNodes, 0)
	mid := time.Now()
	core.ProfileMaxEndurance(table, tr.Events, in.w.BaseBatch, 50, opt.seed)
	ls.tableBuildS, ls.profileS = mid.Sub(start).Seconds(), time.Since(mid).Seconds()
	ls.depViolations = float64(in.reg.Counter("cascade_dep_violation_events_total").Value())
}

// measureMicroLayers times the dense kernel both phases lean on.
func measureMicroLayers(opt options, ls *layerStats) {
	rng := rand.New(rand.NewSource(opt.seed))
	a, b := tensor.NewMatrix(256, 256), tensor.NewMatrix(256, 256)
	for i := range a.Data {
		a.Data[i], b.Data[i] = rng.Float32(), rng.Float32()
	}
	ls.matmul256Us = p50Us(30, func(int) { tensor.MatMul(a, b).Release() })
	a.Release()
	b.Release()
}

// reportPerLayer emits every per-layer metric of BENCHMARK.json.
func reportPerLayer(out *outcome, in *instance, sv *serveStats, tp *trainStats, ls *layerStats, ms0, ms1 runtime.MemStats) {
	m := &out.metrics
	nEp := float64(len(tp.epochs))
	var sum epochLog
	for _, e := range tp.epochs {
		sum.add(e)
	}
	batches, events := float64(len(sum.sizes)), nEp*float64(in.nTrain)
	last := tp.epochs[in.w.FixedEpochs-1]
	perEpoch := func(d time.Duration) float64 { return d.Seconds() / nEp }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	m.put("graph.datagen_s", in.datagenS, "s")
	m.put("core.table_build_s", ls.tableBuildS, "s")
	m.put("core.profile_s", ls.profileS, "s")
	m.put("core.lookup_s", perEpoch(sum.lookup), "s")
	// core.* describe the Cascade scheduler's work and stay 0 without it;
	// train.batches / train.mean_batch_size say the same of any scheduler.
	var cascadeBatches float64
	if in.run.CascadeScheduler() != nil {
		cascadeBatches = float64(len(last.sizes))
	}
	m.put("core.batches", cascadeBatches, "count")
	m.put("core.mean_batch_size", ratio(float64(in.nTrain), cascadeBatches), "events")
	m.put("core.maxr_end", float64(last.maxrEnd), "count")
	m.put("core.stable_ratio", last.stableRatio, "ratio")
	m.put("core.dep_violation_events", ls.depViolations, "count")

	m.put("train.prep_s", perEpoch(sum.prep), "s")
	m.put("models.begin_s", perEpoch(sum.begin), "s")
	m.put("models.embed_s", perEpoch(sum.embed), "s")
	m.put("train.backward_s", perEpoch(sum.backward), "s")
	m.put("models.end_s", perEpoch(sum.end), "s")
	m.put("train.other_s", perEpoch(sum.wall-sum.stages()), "s")
	m.put("train.accounted_share", ratio((sum.stages()+sum.lookup).Seconds(), sum.wall.Seconds()), "ratio")
	m.put("train.epochs", nEp, "count")
	m.put("train.batches", float64(len(last.sizes)), "count")
	m.put("train.mean_batch_size", ratio(float64(in.nTrain), float64(len(last.sizes))), "events")

	m.put("tensor.tape_kernels_per_batch", ratio(float64(sum.kernels), batches), "count")
	m.put("tensor.tape_gflop", sum.flops/1e9/nEp, "gflop")
	m.put("tensor.alloc_floats_per_event", ratio(float64(sum.allocFloats), events), "count")
	m.put("tensor.pool_hit_ratio", ratio(float64(sum.poolHits), float64(sum.poolHits+sum.poolMisses)), "ratio")
	m.put("tensor.matmul_256_us", ls.matmul256Us, "us")
	m.put("plan.hit_ratio", ratio(float64(sum.planHits), batches), "ratio")
	m.put("plan.fused_ops_per_batch", ratio(float64(sum.planFused), batches), "count")
	m.put("device.sim_time_s", perEpoch(sum.device), "s")
	m.put("device.mean_occupancy", ratio(sum.occupancy, batches), "ratio")

	m.put("serve.handler_score_us", ls.handlerScoreUs, "us")
	m.put("serve.handler_ingest_us", ls.handlerIngestUs, "us")
	m.put("serve.transport_score_us", ls.loopbackScoreUs-ls.handlerScoreUs, "us")
	m.put("serve.transport_ingest_us", ls.loopbackIngestUs-ls.handlerIngestUs, "us")
	m.put("serve.decode_score_us", ls.decodeScoreUs, "us")
	m.put("serve.decode_ingest_us", ls.decodeIngestUs, "us")
	m.put("serve.encode_score_us", ls.encodeScoreUs, "us")
	accounted := ls.decodeScoreUs + ls.acquireNs/1000 + ls.snapshotUs + ls.beginUs + ls.embedUs + ls.restoreUs + ls.predictorUs + ls.encodeScoreUs
	m.put("serve.score_accounted_share", ratio(accounted, ls.handlerScoreUs), "ratio")
	m.put("serve.compact_ms", ls.compactMs, "ms")
	m.put("load.acquire_ns", ls.acquireNs, "ns")
	m.put("models.snapshot_us", ls.snapshotUs, "us")
	m.put("models.begin_batch_us", ls.beginUs, "us")
	m.put("models.embed_us", ls.embedUs, "us")
	m.put("models.restore_us", ls.restoreUs, "us")
	m.put("nn.predictor_us", ls.predictorUs, "us")
	m.put("models.state_bytes", ls.stateBytes, "bytes")
	m.put("models.apply_events_us", ls.applyUs, "us")

	m.put("wal.append_always_us", ls.walAlwaysUs, "us")
	m.put("wal.append_batch_us", ls.walBatchUs, "us")
	m.put("wal.append_interval_us", ls.walIntvlUs, "us")
	m.put("wal.fsync_us", ls.walAlwaysUs-ls.walIntvlUs, "us")

	m.put("cluster.router_score_us", ls.routerScoreUs, "us")
	m.put("cluster.router_ingest_us", ls.routerIngestUs, "us")
	m.put("cluster.shard_score_us", ls.shardScoreUs, "us")
	m.put("cluster.shard_ingest_us", ls.shardIngestUs, "us")
	m.put("cluster.router_overhead_score_us", ls.routerScoreUs-ls.shardScoreUs, "us")
	m.put("cluster.router_overhead_ingest_us", ls.routerIngestUs-ls.shardIngestUs, "us")
	m.put("cluster.shards_touched_per_req", ls.shardsTouched, "count")
	m.put("cluster.owner_ns", ls.ownerNs, "ns")
	m.put("cluster.repl_ack_lag_ms_mean", ls.ackLagMsMean, "ms")
	m.put("cluster.hinted_batches", ls.hintedBatches, "count")

	m.put("obs.counter_lookup_ns", ls.counterLookupNs, "ns")
	m.put("obs.span_ns", ls.spanNs, "ns")
	m.put("obs.tracer_overhead_share", ls.tracerOverhead, "ratio")

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	requests := sv.attempted() - sv.extraSent
	rss, err := peakRSSMB()
	if err != nil {
		out.problem("runtime.peak_rss_mb: %v", err)
	}
	m.put("runtime.peak_rss_mb", rss, "MB")
	m.put("runtime.alloc_mb", float64(ms.TotalAlloc)/1e6, "MB")
	m.put("runtime.num_gc", float64(ms.NumGC), "count")
	m.put("runtime.gc_pause_ms_total", float64(ms.PauseTotalNs)/1e6, "ms")
	m.put("runtime.alloc_bytes_per_req", ratio(float64(ms1.TotalAlloc-ms0.TotalAlloc), float64(requests)), "bytes")

	var late, scoreLat, ingestLat []float64
	for c := range sv.scoreWin {
		late = append(append(late, sv.scoreWin[c].lateMs...), sv.ingestWin[c].lateMs...)
		scoreLat = append(scoreLat, sv.scoreWin[c].latencyMs...)
		ingestLat = append(ingestLat, sv.ingestWin[c].latencyMs...)
	}
	exhausted := 0.0
	if in.ingC.exhausted {
		exhausted = 1
	}
	m.put("loadgen.sent", float64(sv.attempted()), "count")
	m.put("loadgen.ok", float64(sv.attempted()-sv.failed()), "count")
	m.put("loadgen.failed", float64(sv.failed()), "count")
	m.put("loadgen.late_p99_ms", percentile(late, 99), "ms")
	m.put("loadgen.score_p99_ms", percentile(scoreLat, 99), "ms")
	m.put("loadgen.ingest_p99_ms", percentile(ingestLat, 99), "ms")
	m.put("loadgen.samples", float64(len(scoreLat)+len(ingestLat)), "count")
	m.put("loadgen.budget_exhausted", exhausted, "count")
}
