package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/cascade-ml/cascade"
	"github.com/cascade-ml/cascade/internal/graph"
	"github.com/cascade-ml/cascade/internal/graph/datagen"
	"github.com/cascade-ml/cascade/internal/obs"
	"github.com/cascade-ml/cascade/internal/train"
)

// options are one run's arguments.
type options struct {
	seed    int64
	seconds float64 // measuring time: serve phase + timed epochs
	trace   bool    // record spans and report per-layer instead of end-to-end metrics
	scale   float64 // < 1 shrinks the workload (tests)
	// setupRepeats is how many times the whole set-up runs; setup_s is the
	// median, and the last instance is the one measured.
	setupRepeats int
	outDir       string // trace files, fingerprints, WAL scratch
}

// shrunk reports whether the run uses reduced workload sizes.
func (o options) shrunk() bool { return o.scale > 0 && o.scale < 1 }

// outcome is what one run reports.
type outcome struct {
	metrics           metricSet
	attempted, failed int
	problems          []string // failed correctness checks; any makes the run incorrect
	notes             []string // context printed beside the metrics
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

const (
	warmupIngests = 100
	warmupScores  = 50
	// cycles is how many times the measuring time alternates between timed
	// epochs, an open-loop window and two closed-loop slices. The box's two
	// CPUs are SMT siblings that the host places and shares as it likes, which
	// slows whole seconds of a run by a quarter; spreading every metric's
	// samples over the whole run and reporting the second-best cycle is what
	// makes the numbers repeat.
	cycles = 5
	// openShare of the serve time is open loop, the rest closed loop.
	openShare = 0.75
)

// instance is one fully set-up system: a trained-for-one-epoch run and the
// serving topology built from its weights, warmed up and ready for traffic.
type instance struct {
	w      workload
	ds     *graph.Dataset // whole stream
	pre    *graph.Dataset // training prefix
	nTrain int            // events of the train split (what one epoch walks)
	run    *cascade.Run
	reg    *obs.Registry // the run's metrics registry (trace runs only)
	log    *batchLog
	dep    *deployment
	score  *stream
	ingest *stream
	scoreC *cursor
	ingC   *cursor
	// pieces of the set-up, in seconds
	datagenS, newRunS, warmEpochS, deployS, warmServeS float64
}

func (in *instance) setupSeconds() float64 {
	return in.datagenS + in.newRunS + in.warmEpochS + in.deployS + in.warmServeS
}

func (in *instance) close() error {
	if in.score != nil {
		in.score.close()
		in.ingest.close()
	}
	if in.dep != nil {
		err := in.dep.close()
		in.dep = nil
		return err
	}
	return nil
}

// generate builds the workload's event stream from the seed.
func generate(w workload, seed int64) (*graph.Dataset, error) {
	p, ok := datagen.ByName[w.Profile]
	if !ok {
		return nil, fmt.Errorf("unknown dataset profile %q", w.Profile)
	}
	total := w.TrainEvents + w.TailEvents
	ds := p.Generate(datagen.Options{
		Scale: float64(w.Nodes) / float64(p.Nodes), Seed: seed,
		MinNodes: w.Nodes, MinEvents: total,
	})
	// The profile's own scaled event count may exceed the floor; the sizes
	// are part of the workload, so cut to exactly what it names.
	ds.Events = ds.Events[:total]
	return ds, nil
}

// setUp runs the whole set-up once: generate the stream, build the run (for
// Cascade: dependency table + endurance profiling), train the warm-up epoch,
// start the serving topology from the 1-epoch weights, and warm it up over
// HTTP. *enc is filled on first use and shared by later repeats: encoding the
// generator's request bodies is the benchmark's work, not the system's, and is
// left out of the pieces that make up setup_s.
func setUp(w workload, opt options, rec *recorder, enc **bodies, scratch string) (_ *instance, err error) {
	in := &instance{w: w, log: &batchLog{rec: rec}}
	defer func() {
		if err != nil {
			in.close()
		}
	}()
	root := rec.reserve()
	begin := time.Now()
	piece := func(name string, fn func() error) (float64, error) {
		start := time.Now()
		err := fn()
		end := time.Now()
		rec.add(name, root, 0, start, end)
		return end.Sub(start).Seconds(), err
	}

	if in.datagenS, err = piece("graph.datagen", func() error {
		in.ds, err = generate(w, opt.seed)
		return err
	}); err != nil {
		return nil, err
	}
	pre := *in.ds
	pre.Name += "/prefix"
	pre.Events = in.ds.Events[:w.TrainEvents]
	in.pre = &pre
	tr, _ := in.pre.Split(0.8)
	in.nTrain = tr.NumEvents()
	if *enc == nil {
		*enc = encodeBodies(in.ds, w.TrainEvents, w.PrefillEvents, opt.seed)
	}

	if in.newRunS, err = piece("cascade.NewRun", func() error {
		cfg := cascade.RunConfig{
			Dataset: in.pre, Model: w.Model, Scheduler: w.Sched, BaseBatch: w.BaseBatch,
			MemoryDim: memoryDim, TimeDim: timeDim, Seed: modelSeed, OnBatch: in.log.onBatch,
		}
		if opt.trace {
			in.reg = obs.NewRegistry()
			cfg.Obs = in.reg
		}
		in.run, err = cascade.NewRun(cfg)
		return err
	}); err != nil {
		return nil, err
	}
	in.warmEpochS, _ = piece("train.warmup_epoch", func() error {
		in.trainEpoch()
		return nil
	})
	if in.deployS, err = piece("serve.deploy", func() error {
		in.dep, err = deploy(w.Topology, in.run, in.ds.NumNodes, scratch)
		return err
	}); err != nil {
		return nil, err
	}
	in.score, in.ingest = newStream(in.dep.url, "score"), newStream(in.dep.url, "ingest")
	in.scoreC = &cursor{pool: (*enc).score, cycle: true}
	in.ingC = &cursor{pool: (*enc).ingest}
	if in.warmServeS, err = piece("serve.warmup", func() error {
		for i, body := range (*enc).prefill {
			if err := in.ingest.post(body); err != nil {
				return fmt.Errorf("prefill ingest %d: %w", i, err)
			}
		}
		for i := 0; i < warmupIngests; i++ {
			if err := in.ingest.post(in.ingC.take()); err != nil {
				return fmt.Errorf("warm-up ingest %d: %w", i, err)
			}
		}
		for i := 0; i < warmupScores; i++ {
			if err := in.score.post(in.scoreC.take()); err != nil {
				return fmt.Errorf("warm-up score %d: %w", i, err)
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	rec.addWithID(root, "setup", 0, 0, begin, time.Now())
	return in, nil
}

// trainEpoch runs one epoch through the trainer's public entry point and
// returns its stats together with the batches the trainer reported.
func (in *instance) trainEpoch() (train.EpochStats, epochLog) {
	in.log.begin()
	var before time.Duration
	if cs := in.run.CascadeScheduler(); cs != nil {
		before = cs.LookupTime()
	}
	st := in.run.Trainer().TrainEpoch()
	ep := in.log.end(st)
	if cs := in.run.CascadeScheduler(); cs != nil {
		ep.lookup = cs.LookupTime() - before
	}
	return st, ep
}

// runWorkload is the whole benchmark for one workload: set up (several
// times), measure in cycles, check, report.
func runWorkload(w workload, opt options) (*outcome, error) {
	if opt.shrunk() {
		w = w.scaled(opt.scale)
	}
	if opt.setupRepeats < 1 {
		opt.setupRepeats = 1
	}
	out := &outcome{}
	var rec *recorder
	if opt.trace {
		rec = newRecorder()
	}
	scratch := filepath.Join(opt.outDir, fmt.Sprintf("scratch-%s-%d", w.Name, os.Getpid()))
	defer os.RemoveAll(scratch)

	var enc *bodies
	var in *instance
	var setups []float64
	for k := 0; k < opt.setupRepeats; k++ {
		if in != nil {
			if err := in.close(); err != nil {
				return nil, fmt.Errorf("tear down set-up %d: %w", k-1, err)
			}
			in = nil
			runtime.GC()
		}
		next, err := setUp(w, opt, rec, &enc, filepath.Join(scratch, fmt.Sprintf("i%d", k)))
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", k, err)
		}
		in = next
		setups = append(setups, in.setupSeconds())
	}
	defer in.close()

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	sv, tp, err := measure(in, enc, opt, rec, out)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)

	var layers *layerStats
	if opt.trace {
		if layers, err = measureServeLayers(in, enc, opt, rec, out); err != nil {
			return nil, err
		}
	}
	if err := in.close(); err != nil {
		return nil, fmt.Errorf("tear down: %w", err)
	}

	out.note("set-up: datagen %.3fs, NewRun %.3fs, warm-up epoch %.3fs, deploy %.3fs, serve warm-up %.3fs (last of %d)",
		in.datagenS, in.newRunS, in.warmEpochS, in.deployS, in.warmServeS, len(setups))
	sv.notes(out)
	out.note("%d of %d ingest bodies used", in.ingC.next, len(enc.ingest))
	out.note("train: %d timed epochs (val_loss after %d), walls %.3v s, train_loss %.9g, val_loss %.9g",
		len(tp.wallsS), w.FixedEpochs, tp.wallsS, tp.trainLoss, tp.valLoss)
	checkGolden(w, opt, tp, out)
	if err := checkFingerprint(w, opt, sv.fingerprint, out); err != nil {
		return nil, err
	}
	out.attempted = sv.attempted() + tp.batches
	out.failed = sv.failed()

	if !opt.trace {
		reportEndToEnd(out, median(setups), sv, tp)
		return out, nil
	}
	measureTrainLayers(in, opt, layers)
	measureMicroLayers(opt, layers)
	reportPerLayer(out, in, sv, tp, layers, ms0, ms1)
	path := filepath.Join(opt.outDir, w.Name+".trace.json")
	n, err := rec.writeChrome(path)
	if err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	out.note("trace: %d spans in %s", n, path)
	return out, nil
}

// serveStats is what the load generator saw: one open-loop window and one
// closed-loop slice per stream per cycle.
type serveStats struct {
	windowDur, sliceDur       time.Duration
	scoreWin, ingestWin       []tally
	scoreClosed, ingestClosed []tally
	extraSent                 int    // warm-up and probe requests
	fingerprint               string // primaries' state after the first window

	scoreP50, scoreP90, ingestP50, ingestP90 []float64 // per window, ms
	scoreRate, ingestRate                    []float64 // per slice, requests/s
}

func (s *serveStats) tallies() []tally {
	all := append([]tally(nil), s.scoreWin...)
	all = append(all, s.ingestWin...)
	all = append(all, s.scoreClosed...)
	return append(all, s.ingestClosed...)
}

func (s *serveStats) attempted() int {
	n := s.extraSent
	for _, t := range s.tallies() {
		n += t.sent
	}
	return n
}

func (s *serveStats) failed() int {
	n := 0
	for _, t := range s.tallies() {
		n += t.failed
	}
	return n
}

func (s *serveStats) notes(out *outcome) {
	out.note("open-loop windows of %s: /score p50 %.3v p90 %.3v ms, /ingest p50 %.3v p90 %.3v ms",
		s.windowDur, s.scoreP50, s.scoreP90, s.ingestP50, s.ingestP90)
	out.note("closed-loop slices: /score for %s each %.0f req/s, /ingest bursts of %d requests %.0f req/s",
		s.sliceDur, s.scoreRate, s.ingestClosed[0].sent, s.ingestRate)
}

// secondBest is the estimator every timing metric uses over its per-cycle
// values: not the best, which one lucky window can set, and not the median,
// which a slowed half-run drags along.
func secondBest(xs []float64, lowerIsBetter bool) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	if lowerIsBetter {
		return s[1]
	}
	return s[len(s)-2]
}

// measure spends the measuring time in cycles of timed epochs, one open-loop
// window (both streams side by side on a fixed schedule, latency from due
// times) and two closed-loop slices (each stream alone, back to back, so the
// two do not trade throughput with each other from run to run).
func measure(in *instance, enc *bodies, opt options, rec *recorder, out *outcome) (*serveStats, *trainStats, error) {
	w := in.w
	seconds := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	serveS := (1 - w.TrainShare) * opt.seconds
	sv := &serveStats{
		windowDur: seconds(serveS * openShare / cycles),
		sliceDur:  seconds(serveS * (1 - openShare) / cycles),
		extraSent: len(enc.prefill) + warmupIngests + warmupScores,
	}
	tp := &trainStats{}
	trainBudget := seconds(w.TrainShare * opt.seconds / cycles)
	// The /ingest burst is sized for the default measuring time and follows it.
	burst := int(float64(w.IngestBurst)*opt.seconds/defaultSeconds + 0.5)
	if burst < 10 {
		burst = 10
	}

	// The arrival schedules are inputs too: drawn from the seed, one source per
	// stream so that neither goroutine's draws depend on the other's pace.
	scoreRng := rand.New(rand.NewSource(opt.seed<<1 ^ 0x5c0e))
	ingestRng := rand.New(rand.NewSource(opt.seed<<1 ^ 0x1465))

	for c := 0; c < cycles; c++ {
		// Start every cycle from a collected heap, so that the collector's
		// pacing does not carry one phase's garbage into the next one's timing.
		runtime.GC()
		for start := time.Now(); ; {
			tp.epoch(in, out)
			if time.Since(start) >= trainBudget {
				break
			}
		}

		runtime.GC()
		req := uint64(c+1) * 10_000_000
		parent, start := rec.reserve(), time.Now()
		sc, ig := both(
			func() tally {
				return openLoop(in.score, in.scoreC, w.ScoreRate, sv.windowDur, scoreRng, rec, req+1_000_000)
			},
			func() tally {
				return openLoop(in.ingest, in.ingC, w.IngestRate, sv.windowDur, ingestRng, rec, req+2_000_000)
			},
		)
		rec.addWithID(parent, "serve.open_window", 0, req, start, time.Now())
		sv.scoreWin, sv.ingestWin = append(sv.scoreWin, sc), append(sv.ingestWin, ig)
		sv.scoreP50, sv.scoreP90 = append(sv.scoreP50, percentile(sc.latencyMs, 50)), append(sv.scoreP90, percentile(sc.latencyMs, 90))
		sv.ingestP50, sv.ingestP90 = append(sv.ingestP50, percentile(ig.latencyMs, 50)), append(sv.ingestP90, percentile(ig.latencyMs, 90))
		if c == 0 {
			if err := sv.probeReadOnly(in, out); err != nil {
				return nil, nil, err
			}
		}

		parent, start = rec.reserve(), time.Now()
		sc = closedLoop(in.score, in.scoreC, sv.sliceDur, 0, rec, req+3_000_000)
		ig = closedLoop(in.ingest, in.ingC, 10*sv.sliceDur, burst, rec, req+4_000_000)
		rec.addWithID(parent, "serve.closed_slices", 0, req, start, time.Now())
		sv.scoreClosed, sv.ingestClosed = append(sv.scoreClosed, sc), append(sv.ingestClosed, ig)
		sv.scoreRate, sv.ingestRate = append(sv.scoreRate, sc.goodPerSecond()), append(sv.ingestRate, ig.goodPerSecond())
	}
	for len(tp.wallsS) < w.FixedEpochs {
		tp.epoch(in, out)
	}
	tp.eventsPerS = float64(in.nTrain) / secondBest(tp.wallsS, true)
	if !isFinite(tp.valLoss) || tp.valLoss <= 0 {
		out.problem("val_loss %v is not a positive finite number", tp.valLoss)
	}

	if in.ingC.exhausted {
		out.problem("/ingest used up the held-out tail (%d batches): budget_exhausted", len(enc.ingest))
	}
	for _, t := range sv.tallies() {
		if t.firstErr != nil {
			out.problem("%d of %d requests failed, first: %v", t.failed, t.sent, t.firstErr)
		}
	}
	if err := in.dep.checkDrained(w.PrefillEvents+in.ingC.next*eventsPerIngest, out); err != nil {
		return nil, nil, err
	}
	return sv, tp, nil
}

// probeReadOnly records the state fingerprint after the first open-loop
// window — a fixed number of fixed bodies in, so it must repeat bit for bit —
// and checks that /score leaves it alone.
func (s *serveStats) probeReadOnly(in *instance, out *outcome) error {
	fp, err := in.dep.fingerprint()
	if err != nil {
		return err
	}
	s.fingerprint = fp
	const probes = 3
	for i := 0; i < probes; i++ {
		if err := in.score.post(in.scoreC.take()); err != nil {
			out.problem("read-only probe /score: %v", err)
		}
	}
	s.extraSent += probes
	again, err := in.dep.fingerprint()
	if err != nil {
		return err
	}
	if again != fp {
		out.problem("/score changed the stream state: fingerprint %s → %s", fp, again)
	}
	return nil
}

// fingerprint joins the state fingerprints of the members that take writes.
func (d *deployment) fingerprint() (string, error) {
	var fp string
	for i, m := range d.primaries() {
		_, f, err := m.stats()
		if err != nil {
			return "", fmt.Errorf("primary %d: %w", i, err)
		}
		if i > 0 {
			fp += "+"
		}
		fp += f
	}
	return fp, nil
}

// checkDrained verifies that every event sent was applied exactly once
// (Σ ingested over the primaries) and, in a cluster, that each standby's
// state equals its primary's: /ingest acks wait for the standby, so once the
// last ack is in there is nothing left in flight.
func (d *deployment) checkDrained(sentEvents int, out *outcome) error {
	var total int64
	for i, m := range d.primaries() {
		n, fp, err := m.stats()
		if err != nil {
			return fmt.Errorf("primary %d: %w", i, err)
		}
		total += n
		if d.kind != topoCluster {
			continue
		}
		_, sfp, err := d.shards[i].standby.stats()
		if err != nil {
			return fmt.Errorf("standby %d: %w", i, err)
		}
		if sfp != fp {
			out.problem("shard %d: standby fingerprint %s differs from primary %s after drain", i, sfp, fp)
		}
	}
	if total != int64(sentEvents) {
		out.problem("servers ingested %d events, generator sent %d", total, sentEvents)
	}
	return nil
}

// trainStats is what the timed epochs produced.
type trainStats struct {
	epochs     []epochLog
	wallsS     []float64
	valLoss    float64
	trainLoss  float64 // mean training loss of the last fixed epoch
	eventsPerS float64
	batches    int
}

// epoch runs one timed epoch. After the FixedEpochs-th, val_loss is read: a
// faster trainer gets more timing samples but never a different loss.
func (tp *trainStats) epoch(in *instance, out *outcome) {
	st, ep := in.trainEpoch()
	tp.epochs = append(tp.epochs, ep)
	tp.wallsS = append(tp.wallsS, st.WallTime.Seconds())
	tp.batches += st.Batches
	if err := in.checkPartition(ep); err != nil {
		out.problem("timed epoch %d: %v", len(tp.epochs), err)
	}
	if len(tp.epochs) == in.w.FixedEpochs {
		tp.trainLoss = st.Loss
		tp.valLoss = in.run.Trainer().Validate()
	}
}

// checkPartition verifies that the epoch's batches cut the train split
// contiguously, in order, exactly once: every batch non-empty, the trainer's
// running event count advancing by exactly each batch's size up to the split
// size, and — for Cascade — the sizes the trainer consumed equal to the sizes
// the scheduler cut.
func (in *instance) checkPartition(ep epochLog) error {
	cum := 0
	for i, b := range ep.sizes {
		if b <= 0 {
			return fmt.Errorf("batch %d is empty", i)
		}
		cum += b
		if ep.cum[i] != cum {
			return fmt.Errorf("batch %d ends at event %d, want %d: not contiguous", i, ep.cum[i], cum)
		}
	}
	if cum != in.nTrain {
		return fmt.Errorf("batches cover %d events, train split has %d", cum, in.nTrain)
	}
	if cs := in.run.CascadeScheduler(); cs != nil {
		cut := cs.BatchSizes()
		if len(cut) != len(ep.sizes) {
			return fmt.Errorf("scheduler cut %d batches, trainer ran %d", len(cut), len(ep.sizes))
		}
		for i := range cut {
			if cut[i] != ep.sizes[i] {
				return fmt.Errorf("batch %d: scheduler cut %d events, trainer ran %d", i, cut[i], ep.sizes[i])
			}
		}
	}
	return nil
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	var kb float64
	for _, line := range strings.Split(string(raw), "\n") {
		if n, _ := fmt.Sscanf(line, "VmHWM: %f kB", &kb); n == 1 {
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// reportEndToEnd emits every end-to-end metric of BENCHMARK.json.
func reportEndToEnd(out *outcome, setupS float64, sv *serveStats, tp *trainStats) {
	m := &out.metrics
	m.put("setup_s", setupS, "s")
	m.put("train_events_per_s", tp.eventsPerS, "events/s")
	m.put("val_loss", tp.valLoss, "loss")
	m.put("score_p50_ms", secondBest(sv.scoreP50, true), "ms")
	m.put("score_p90_ms", secondBest(sv.scoreP90, true), "ms")
	m.put("ingest_p50_ms", secondBest(sv.ingestP50, true), "ms")
	m.put("ingest_p90_ms", secondBest(sv.ingestP90, true), "ms")
	m.put("score_pairs_per_s", pairsPerScore*secondBest(sv.scoreRate, false), "pairs/s")
	m.put("ingest_events_per_s", eventsPerIngest*secondBest(sv.ingestRate, false), "events/s")
	if rss, err := peakRSSMB(); err == nil {
		out.note("peak RSS %.1f MB (per-layer runtime.peak_rss_mb: it follows the seed's largest Cascade batch by up to a third, too much for an end-to-end bound)", rss)
	}
}
