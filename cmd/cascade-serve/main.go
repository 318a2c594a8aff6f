// Command cascade-serve trains a TGNN on a synthetic stream (or restores a
// checkpoint) and serves it for online inference: fresh events stream in
// via POST /ingest, candidate edges are scored via POST /score, counters at
// GET /stats, Prometheus metrics at GET /metrics — the continuous-deployment
// scenario the paper's introduction motivates.
//
//	cascade-serve -dataset WIKI -model TGN -epochs 5 -addr :8080
//	curl -X POST localhost:8080/score -d '{"pairs":[{"src":1,"dst":2}],"time":1e6}'
//	curl localhost:8080/metrics
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/cascade-ml/cascade"
	"github.com/cascade-ml/cascade/internal/cluster"
	"github.com/cascade-ml/cascade/internal/load"
	"github.com/cascade-ml/cascade/internal/serve"
	"github.com/cascade-ml/cascade/internal/wal"
)

func main() {
	model := flag.String("model", "TGN", "TGNN model name")
	dataset := flag.String("dataset", "WIKI", "dataset profile for pre-training")
	events := flag.Int("events", 4000, "pre-training event count")
	epochs := flag.Int("epochs", 6, "pre-training epochs")
	memdim := flag.Int("memdim", 32, "node memory width")
	addr := flag.String("addr", ":8080", "listen address")
	loadPath := flag.String("load", "", "restore a checkpoint instead of pre-training from scratch")
	seed := flag.Int64("seed", 1, "random seed")
	reqTimeout := flag.Duration("request-timeout", 10*time.Second, "per-request deadline (503 beyond); 0 disables")
	shutdownTimeout := flag.Duration("shutdown-timeout", 15*time.Second, "drain deadline for in-flight requests on SIGINT/SIGTERM")
	maxInflight := flag.Int("max-inflight", 16, "concurrently admitted requests; more wait in the bounded queue")
	queueDepth := flag.Int("queue-depth", 64, "wait-queue bound behind -max-inflight; arrivals beyond it are shed with 429 + Retry-After")
	rate := flag.Float64("rate", 0, "sustained admission rate in requests/second (token bucket; 0 = unlimited)")
	staleOK := flag.Bool("stale-ok", false, "degrade /score to a stale-snapshot replica instead of shedding when the fresh path is saturated or its breaker is open")
	breakerCooldown := flag.Duration("breaker-cooldown", 5*time.Second, "how long the scoring circuit breaker stays open before probing")
	traceChrome := flag.String("trace-chrome", "", "write a Chrome trace-event JSON file here (pre-training batches + per-request spans; open in Perfetto)")
	flightDir := flag.String("flight-dir", "", "flight-recorder dump directory; the span ring is dumped here when the scoring breaker opens")
	flightKeep := flag.Int("flight-keep", 64, "how many recent span trees the flight recorder retains")
	logLevel := flag.String("log-level", "info", "structured log level on stderr: debug, info, warn, error")
	logJSON := flag.Bool("log-json", false, "emit structured logs as JSON instead of text")
	walDir := flag.String("wal-dir", "", "write-ahead-log directory for /ingest durability; empty disables the WAL (crash loses ingested events)")
	walSync := flag.String("wal-sync", "batch", "WAL sync policy: always (fsync per record), batch (fsync per ingest request), interval (fsync on -wal-sync-interval; acks may precede durability)")
	walSegmentBytes := flag.Int64("wal-segment-bytes", 0, "WAL segment file size cap in bytes (0 = 4 MiB default)")
	walSyncInterval := flag.Duration("wal-sync-interval", 100*time.Millisecond, "flush cadence under -wal-sync interval")
	walCompactEvery := flag.Int("wal-compact-every", 0, "compact (snapshot + truncate) after this many ingest batches (0 = 256 default, negative disables)")
	replListen := flag.String("repl-listen", "", "run as a replication standby: accept the primary's WAL stream on this TCP address (requires -wal-dir; /ingest refuses writes until promoted)")
	replTarget := flag.String("repl-target", "", "run as a replication primary: stream committed WAL frames to the standby at this TCP address (requires -wal-dir)")
	replAckTimeout := flag.Duration("repl-ack-timeout", 5*time.Second, "how long /ingest waits for the standby's durable ack before degrading to async replication for that batch")
	replLagBound := flag.Uint64("repl-lag-bound", 1024, "committed-minus-acked record gap beyond which /readyz reports the standby as lagging")
	flag.Parse()

	if (*replListen != "" || *replTarget != "") && *walDir == "" {
		fmt.Fprintln(os.Stderr, "cascade-serve: -repl-listen / -repl-target require -wal-dir (replication ships WAL frames)")
		os.Exit(1)
	}
	if *replListen != "" && *replTarget != "" {
		fmt.Fprintln(os.Stderr, "cascade-serve: a process is either a primary (-repl-target) or a standby (-repl-listen), not both")
		os.Exit(1)
	}

	profileEvents := map[string]int{
		"WIKI": 157474, "REDDIT": 672447, "MOOC": 411749,
		"WIKI-TALK": 5021410, "SX-FULL": 63497050,
		"GDELT": 191290882, "MAG": 1297748926,
	}
	pe, ok := profileEvents[*dataset]
	if !ok {
		fmt.Fprintf(os.Stderr, "cascade-serve: unknown dataset %q\n", *dataset)
		os.Exit(1)
	}
	ds := cascade.GenerateDataset(*dataset, float64(*events)/float64(pe), *seed)
	base := 900 * ds.NumEvents() / pe
	if base < 10 {
		base = 10
	}
	// One registry spans the whole process: pre-training metrics (train_*,
	// cascade_*, device_*) and serving metrics (serve_*) both land on
	// GET /metrics.
	reg := cascade.NewMetricsRegistry()
	var (
		tracer *cascade.Tracer
		flight *cascade.FlightRecorder
	)
	if *traceChrome != "" || *flightDir != "" {
		var topt cascade.TracerOptions
		if *traceChrome != "" {
			f, err := os.Create(*traceChrome)
			if err != nil {
				fmt.Fprintf(os.Stderr, "cascade-serve: trace-chrome: %v\n", err)
				os.Exit(1)
			}
			chrome := cascade.NewChromeTrace(f)
			topt.Chrome = chrome
			defer chrome.Close()
		}
		if *flightDir != "" {
			flight = cascade.NewFlightRecorder(*flightDir, *flightKeep, reg)
			topt.Flight = flight
		}
		tracer = cascade.NewTracer(topt)
	}
	logger := cascade.NewLogger(os.Stderr, *logLevel, *logJSON, tracer.ID())
	run, err := cascade.NewRun(cascade.RunConfig{
		Dataset: ds, Model: *model, Scheduler: cascade.SchedCascade,
		BaseBatch: base, Epochs: *epochs, MemoryDim: *memdim, TimeDim: 8, Seed: *seed,
		Obs: reg, Tracer: tracer,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "cascade-serve: %v\n", err)
		os.Exit(1)
	}
	if *loadPath != "" {
		f, err := os.Open(*loadPath)
		if err == nil {
			err = run.LoadModel(f)
			f.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "cascade-serve: load: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("restored checkpoint %s\n", *loadPath)
	} else {
		fmt.Printf("pre-training %s on %s (%d events, %d epochs)…\n", *model, ds.Name, ds.NumEvents(), *epochs)
		res, err := run.Execute()
		if err != nil {
			fmt.Fprintf(os.Stderr, "cascade-serve: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("pre-trained: val loss %.4f, mean batch %.0f\n", res.FinalValLoss, res.MeanBatchSize)
	}

	opts := []serve.Option{
		serve.WithRegistry(reg),
		serve.WithLimits(load.Limits{MaxInflight: *maxInflight, QueueDepth: *queueDepth, Rate: *rate}),
		serve.WithBreaker(load.BreakerConfig{Cooldown: *breakerCooldown}),
		serve.WithLogger(logger),
	}
	if tracer != nil {
		opts = append(opts, serve.WithTracer(tracer))
	}
	if flight != nil {
		opts = append(opts, serve.WithFlightRecorder(flight))
	}
	if *staleOK {
		sm, sp, err := run.NewScoringReplica()
		if err != nil {
			fmt.Fprintf(os.Stderr, "cascade-serve: stale replica: %v\n", err)
			os.Exit(1)
		}
		// Re-sync the replica from the live model at most once per second:
		// Snapshot copies every node memory, so per-ingest refresh would
		// double ingest cost under sustained load.
		opts = append(opts, serve.WithStaleReplica(sm, sp, time.Second))
	}
	if *walDir != "" {
		policy, err := wal.ParseSyncPolicy(*walSync)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cascade-serve: %v\n", err)
			os.Exit(1)
		}
		opts = append(opts, serve.WithWAL(serve.WALConfig{
			Dir:          *walDir,
			SegmentBytes: *walSegmentBytes,
			Sync:         policy,
			SyncInterval: *walSyncInterval,
			CompactEvery: *walCompactEvery,
		}))
	}
	if *replListen != "" {
		opts = append(opts, serve.WithStandby())
	}
	srv := serve.New(run.Model(), run.Trainer().Predictor(), ds.NumNodes, opts...)
	if *walDir != "" {
		rec, err := srv.StartWAL()
		if err != nil {
			fmt.Fprintf(os.Stderr, "cascade-serve: wal: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wal %s: snapshot %q, %d segments, replayed %d batches (%d events)",
			*walDir, rec.SnapshotPath, rec.Log.Segments, rec.ReplayedRecords, rec.ReplayedEvents)
		if rec.Log.TornBytes > 0 {
			fmt.Printf(", truncated %d torn bytes", rec.Log.TornBytes)
		}
		fmt.Println()
		logger.Info("wal recovered", "dir", *walDir, "snapshot", rec.SnapshotPath,
			"replayed_batches", rec.ReplayedRecords, "replayed_events", rec.ReplayedEvents,
			"torn_bytes", rec.Log.TornBytes)
	}
	// Replication wiring comes after WAL recovery: the stream positions
	// (standby's next seq, primary's committed frames) only exist once the
	// log is open and replayed.
	var stopRepl func()
	switch {
	case *replListen != "":
		recv, err := cluster.NewReceiver(cluster.ReceiverConfig{
			Addr: *replListen, State: srv, Metrics: reg, Logger: logger,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "cascade-serve: %v\n", err)
			os.Exit(1)
		}
		stopRepl = recv.Stop
		fmt.Printf("standby: accepting WAL stream on %s (POST /admin/promote to take over)\n", recv.Addr())
		logger.Info("replication standby", "listen", recv.Addr())
	case *replTarget != "":
		sender, err := cluster.NewSender(cluster.SenderConfig{
			Target: *replTarget, Log: srv.WAL(), Snapshot: srv.ReplSnapshot,
			Metrics: reg, Logger: logger,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "cascade-serve: %v\n", err)
			os.Exit(1)
		}
		if err := srv.SetReplicator(sender, serve.ReplOptions{
			AckTimeout: *replAckTimeout, LagBound: *replLagBound,
		}); err != nil {
			fmt.Fprintf(os.Stderr, "cascade-serve: %v\n", err)
			os.Exit(1)
		}
		stopRepl = sender.Stop
		fmt.Printf("primary: shipping WAL frames to %s\n", *replTarget)
		logger.Info("replication primary", "target", *replTarget)
	}
	httpSrv := serve.NewHTTPServer(srv.Handler(), serve.HTTPOptions{
		Addr: *addr, RequestTimeout: *reqTimeout,
	})
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	fmt.Printf("serving on %s (POST /ingest, POST /score, GET /stats, GET /metrics, GET /healthz, GET /readyz)\n", *addr)
	logger.Info("serving", "addr", *addr)
	// StartDrain flips /readyz to 503 for the whole drain window, so load
	// balancers stop routing here while in-flight requests finish; the flush
	// hook fsyncs and closes the WAL after the drain, so a clean SIGTERM
	// never leans on replay.
	err = serve.RunGracefulFlush(httpSrv, nil, stop, *shutdownTimeout, srv.StartDrain, func() error {
		if stopRepl != nil {
			stopRepl()
		}
		if ferr := srv.FlushWAL(); ferr != nil {
			return ferr
		}
		return srv.CloseWAL()
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "cascade-serve: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("drained, bye")
}
