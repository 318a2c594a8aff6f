// Command cascade-train trains one TGNN on one synthetic dataset under one
// batching policy and prints per-epoch statistics.
//
//	cascade-train -model TGN -dataset WIKI -scheduler Cascade -epochs 10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"github.com/cascade-ml/cascade"
	"github.com/cascade-ml/cascade/internal/resilience"
	"github.com/cascade-ml/cascade/internal/train"
)

func main() {
	model := flag.String("model", "TGN", "model: "+strings.Join(cascade.ModelNames, ", "))
	dataset := flag.String("dataset", "WIKI", "dataset profile: "+strings.Join(cascade.DatasetNames, ", "))
	scheduler := flag.String("scheduler", "Cascade", "batching policy (TGL, TGLite, TGL-LB, NeutronStream, ETC, Cascade, Cascade-Lite, Cascade-TB, Cascade_EX)")
	events := flag.Int("events", 5000, "approximate event count (dataset is scaled to this)")
	base := flag.Int("base", 0, "base batch size (0 = proportional analog of the paper's 900)")
	epochs := flag.Int("epochs", 10, "training epochs")
	memdim := flag.Int("memdim", 64, "node memory width")
	timedim := flag.Int("timedim", 8, "time encoding width")
	lr := flag.Float64("lr", 1e-3, "Adam learning rate")
	theta := flag.Float64("theta", 0.9, "SG-Filter similarity threshold")
	seed := flag.Int64("seed", 1, "random seed")
	staleness := flag.Int("staleness", 0, "bounded-staleness budget: forward passes may read node memories up to this many update rounds behind (0 = exact schedule)")
	task := flag.String("task", "link", "task: link (edge prediction) or nodeclass (needs a labeled dataset, e.g. MOOC)")
	metrics := flag.Bool("metrics", false, "also report ROC-AUC and Average Precision")
	savePath := flag.String("save", "", "write a model checkpoint here after training")
	loadPath := flag.String("load", "", "restore a model checkpoint before training")
	tracePath := flag.String("trace", "", "write per-batch JSONL trace records here")
	metricsOut := flag.String("metrics-out", "", "write a Prometheus-format metrics dump here after training (\"-\" for stdout)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of training+validation here (go tool pprof)")
	memProfile := flag.String("memprofile", "", "write a post-run heap profile here (go tool pprof)")
	ckptDir := flag.String("checkpoint-dir", "", "write full-state checkpoints (weights, optimizer, memories, scheduler, RNG) into this directory")
	ckptEvery := flag.Int("checkpoint-every", 0, "mid-epoch checkpoint cadence in batches (0 = epoch boundaries only)")
	ckptKeep := flag.Int("checkpoint-keep", 3, "on-disk checkpoint retention (newest N)")
	resume := flag.Bool("resume", false, "resume from the newest checkpoint in -checkpoint-dir")
	health := flag.Bool("health", false, "enable the numerical-health monitor (NaN/exploding-gradient rollback with LR backoff)")
	traceChrome := flag.String("trace-chrome", "", "write a Chrome trace-event JSON file here (open in Perfetto / chrome://tracing; one lane per pipeline phase)")
	flightDir := flag.String("flight-dir", "", "keep a flight recorder of recent batch span trees; dumps into this directory on health rollback")
	flightKeep := flag.Int("flight-keep", 64, "how many recent batch span trees the flight recorder retains")
	logLevel := flag.String("log-level", "info", "structured log level on stderr: debug, info, warn, error")
	logJSON := flag.Bool("log-json", false, "emit structured logs as JSON instead of text")
	flag.Parse()

	profileEvents := map[string]int{
		"WIKI": 157474, "REDDIT": 672447, "MOOC": 411749,
		"WIKI-TALK": 5021410, "SX-FULL": 63497050,
		"GDELT": 191290882, "MAG": 1297748926,
	}
	pe, ok := profileEvents[*dataset]
	if !ok {
		fmt.Fprintf(os.Stderr, "cascade-train: unknown dataset %q\n", *dataset)
		os.Exit(1)
	}
	scale := float64(*events) / float64(pe)
	ds := cascade.GenerateDataset(*dataset, scale, *seed)
	if *base <= 0 {
		*base = int(900*scale + 0.5)
		if *base < 10 {
			*base = 10
		}
	}
	fmt.Printf("dataset %s: %d events, %d nodes, feat dim %d; base batch %d\n",
		ds.Name, ds.NumEvents(), ds.NumNodes, ds.EdgeFeatDim, *base)

	// The registry exists whenever anything consumes it — the -metrics-out
	// dump or flight-recorder snapshots.
	var reg *cascade.Registry
	if *metricsOut != "" || *flightDir != "" {
		reg = cascade.NewMetricsRegistry()
	}
	var (
		tracer *cascade.Tracer
		flight *cascade.FlightRecorder
	)
	if *traceChrome != "" || *flightDir != "" {
		var topt cascade.TracerOptions
		if *traceChrome != "" {
			f, err := os.Create(*traceChrome)
			if err != nil {
				fmt.Fprintf(os.Stderr, "cascade-train: trace-chrome: %v\n", err)
				os.Exit(1)
			}
			chrome := cascade.NewChromeTrace(f)
			topt.Chrome = chrome
			// Close terminates the JSON array; skipped on os.Exit error
			// paths, which Perfetto tolerates (the ] is optional in the
			// trace-event format).
			defer func() {
				if err := chrome.Close(); err != nil {
					fmt.Fprintf(os.Stderr, "cascade-train: trace-chrome: %v\n", err)
				} else {
					fmt.Printf("chrome trace written to %s\n", *traceChrome)
				}
			}()
		}
		if *flightDir != "" {
			flight = cascade.NewFlightRecorder(*flightDir, *flightKeep, reg)
			topt.Flight = flight
		}
		tracer = cascade.NewTracer(topt)
	}
	logger := cascade.NewLogger(os.Stderr, *logLevel, *logJSON, tracer.ID())

	cfg := cascade.RunConfig{
		Dataset:   ds,
		Model:     *model,
		Scheduler: cascade.SchedulerKind(*scheduler),
		BaseBatch: *base,
		Epochs:    *epochs,
		MemoryDim: *memdim,
		TimeDim:   *timedim,
		LR:        float32(*lr),
		ThetaSim:  *theta,
		Seed:      *seed,
		Staleness: *staleness,
	}
	switch *task {
	case "link":
	case "nodeclass":
		cfg.Task = cascade.TaskNodeClassification
	default:
		fmt.Fprintf(os.Stderr, "cascade-train: unknown task %q\n", *task)
		os.Exit(1)
	}
	var traceFile *os.File
	if *tracePath != "" {
		var err error
		traceFile, err = os.Create(*tracePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cascade-train: trace: %v\n", err)
			os.Exit(1)
		}
		defer traceFile.Close()
		enc := json.NewEncoder(traceFile)
		cfg.OnBatch = func(bt cascade.BatchTrace) {
			if err := enc.Encode(bt); err != nil {
				fmt.Fprintf(os.Stderr, "cascade-train: trace: %v\n", err)
				os.Exit(1)
			}
		}
	}
	metricsFile := os.Stdout
	if *metricsOut != "" {
		// Open the dump target up front: failing after hours of training
		// would lose the run's metrics.
		if *metricsOut != "-" {
			f, err := os.Create(*metricsOut)
			if err != nil {
				fmt.Fprintf(os.Stderr, "cascade-train: metrics-out: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			metricsFile = f
		}
	}
	cfg.Obs = reg
	cfg.Tracer = tracer
	run, err := cascade.NewRun(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cascade-train: %v\n", err)
		os.Exit(1)
	}
	if *loadPath != "" {
		f, err := os.Open(*loadPath)
		if err == nil {
			err = run.LoadModel(f)
			f.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "cascade-train: load: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("restored checkpoint %s\n", *loadPath)
	}

	// The CPU profile brackets exactly the hot path (training epochs +
	// validation), not dataset generation or model construction.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cascade-train: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cascade-train: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
	}

	logger.Info("training starting", "model", *model, "dataset", ds.Name,
		"scheduler", *scheduler, "epochs", *epochs, "base_batch", *base)
	printEpoch := func(st train.EpochStats) {
		fmt.Printf("%5d %8d %10.1f %12.5f %12v %8v %7.1f%% %7.1f%%",
			st.Epoch, st.Batches, st.MeanBatchSize, st.Loss,
			st.WallTime.Round(1e6), st.DeviceTime.Round(1e5),
			100*st.MeanOccupancy, 100*st.StableRatio)
		if *staleness > 0 {
			fmt.Printf("  stale served %d (max %d/%d), applied rounds %d",
				st.StaleServed, st.StaleMax, *staleness, st.StaleAppliedRounds)
		}
		fmt.Println()
		logger.Debug("epoch complete", "epoch", st.Epoch, "batches", st.Batches,
			"loss", st.Loss, "wall_ms", st.WallTime.Milliseconds())
	}
	printHeader := func() {
		fmt.Printf("%5s %8s %10s %12s %12s %8s %8s %8s\n",
			"epoch", "batches", "meanbatch", "trainloss", "wall", "device", "occ", "stable")
	}
	if *ckptDir != "" || *health {
		// Fault-tolerant path: the resilience manager owns the epoch loop —
		// checkpoints on cadence, health rollback with LR backoff, resume.
		mgr, err := resilience.NewManager(run.Trainer(), resilience.Options{
			Dir: *ckptDir, EveryBatches: *ckptEvery, Keep: *ckptKeep,
			Health: train.HealthConfig{Enabled: *health},
			Obs:    reg, Recorder: flight,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "cascade-train: %v\n", err)
			os.Exit(1)
		}
		if *resume {
			if *ckptDir == "" {
				fmt.Fprintln(os.Stderr, "cascade-train: -resume needs -checkpoint-dir")
				os.Exit(1)
			}
			ok, err := mgr.Resume()
			if err != nil {
				fmt.Fprintf(os.Stderr, "cascade-train: resume: %v\n", err)
				os.Exit(1)
			}
			if ok {
				c := mgr.LastGood()
				at := "epoch boundary"
				if c.Batch >= 0 {
					at = fmt.Sprintf("batch %d", c.Batch)
				}
				fmt.Printf("resumed from checkpoint (epoch %d, %s)\n", c.Epoch, at)
			} else {
				fmt.Println("no checkpoint found; starting fresh")
			}
		}
		printHeader()
		stats, err := mgr.Run(*epochs)
		for _, st := range stats {
			printEpoch(st)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "cascade-train: %v\n", err)
			os.Exit(1)
		}
	} else {
		if *resume {
			fmt.Fprintln(os.Stderr, "cascade-train: -resume needs -checkpoint-dir")
			os.Exit(1)
		}
		printHeader()
		for e := 0; e < *epochs; e++ {
			printEpoch(run.Trainer().TrainEpoch())
		}
	}
	if cfg.Task == cascade.TaskNodeClassification {
		m := run.Trainer().ValidateClass()
		fmt.Printf("validation (batch %d): loss %.5f", *base, m.Loss)
		if *metrics {
			fmt.Printf("  AUC %.4f  AP %.4f", m.AUC, m.AP)
		}
		fmt.Println()
	} else if *metrics {
		m := run.Trainer().ValidateMetrics()
		fmt.Printf("validation (batch %d): loss %.5f  AUC %.4f  AP %.4f\n", *base, m.Loss, m.AUC, m.AP)
	} else {
		fmt.Printf("validation loss (batch %d): %.5f\n", *base, run.Trainer().Validate())
	}
	if *cpuProfile != "" {
		pprof.StopCPUProfile()
		fmt.Printf("cpu profile written to %s\n", *cpuProfile)
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cascade-train: memprofile: %v\n", err)
			os.Exit(1)
		}
		runtime.GC() // flush dead objects so the profile shows live bytes
		err = pprof.WriteHeapProfile(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "cascade-train: memprofile: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("heap profile written to %s\n", *memProfile)
	}
	if *savePath != "" {
		f, err := os.Create(*savePath)
		if err == nil {
			err = run.SaveModel(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "cascade-train: save: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("checkpoint written to %s\n", *savePath)
	}
	if reg != nil && *metricsOut != "" {
		if err := reg.WritePrometheus(metricsFile); err != nil {
			fmt.Fprintf(os.Stderr, "cascade-train: metrics-out: %v\n", err)
			os.Exit(1)
		}
		if *metricsOut != "-" {
			fmt.Printf("metrics written to %s\n", *metricsOut)
		}
	}
	logger.Info("training complete", "epochs", *epochs)
	if cs := run.CascadeScheduler(); cs != nil {
		stats := cs.Sensor().Stats()
		fmt.Printf("cascade: Maxr=%d (profiled max/mean/min = %.0f/%.0f/%.0f over %d base batches), preprocess %v, lookup %v\n",
			cs.Sensor().Maxr(), stats.MrMax, stats.MrMean, stats.MrMin, stats.NumBaseBatches,
			cs.BuildTime().Round(1e5), cs.LookupTime().Round(1e5))
	}
}
