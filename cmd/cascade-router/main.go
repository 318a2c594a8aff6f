// Command cascade-router fronts a sharded cascade-serve cluster: it spreads
// node pairs over N shards by rendezvous hashing, health-checks every shard
// member, promotes a standby when a primary goes quiet, and buffers writes
// as hinted handoff while a shard has no writable member. Clients speak the
// same /ingest and /score API a solo cascade-serve exposes.
//
//	cascade-serve -addr :8081 -wal-dir /tmp/s0p -repl-target 127.0.0.1:9081 &
//	cascade-serve -addr :8082 -wal-dir /tmp/s0s -repl-listen 127.0.0.1:9081 &
//	cascade-router -addr :8080 -shard http://127.0.0.1:8081,http://127.0.0.1:8082
//	curl -X POST localhost:8080/ingest -d '{"events":[{"src":1,"dst":2,"time":1e6}]}'
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/cascade-ml/cascade"
	"github.com/cascade-ml/cascade/internal/cluster"
	"github.com/cascade-ml/cascade/internal/serve"
)

// shardFlags collects repeatable -shard flags ("primaryURL[,standbyURL]").
type shardFlags []cluster.ShardSpec

func (s *shardFlags) String() string { return fmt.Sprintf("%d shards", len(*s)) }

func (s *shardFlags) Set(v string) error {
	parts := strings.Split(v, ",")
	if len(parts) < 1 || len(parts) > 2 || parts[0] == "" {
		return fmt.Errorf("want primaryURL or primaryURL,standbyURL, got %q", v)
	}
	spec := cluster.ShardSpec{Primary: strings.TrimSpace(parts[0])}
	if len(parts) == 2 {
		spec.Standby = strings.TrimSpace(parts[1])
	}
	*s = append(*s, spec)
	return nil
}

func main() {
	var shards shardFlags
	flag.Var(&shards, "shard", "one shard's members as primaryURL[,standbyURL]; repeat per shard — order and count fix pair placement, so keep them stable across router restarts")
	addr := flag.String("addr", ":8080", "listen address")
	probeInterval := flag.Duration("probe-interval", 250*time.Millisecond, "health-probe cadence per shard member")
	probeTimeout := flag.Duration("probe-timeout", 0, "per-probe timeout (0 = half the interval)")
	probeMisses := flag.Int("probe-misses", 3, "consecutive probe misses before a member is declared dead (and a primary with a live standby is failed over)")
	hintDepth := flag.Int("hint-depth", 256, "max buffered batches per shard while it has no writable member; beyond it ingest sheds with 503")
	reqTimeout := flag.Duration("request-timeout", 10*time.Second, "per-request deadline (503 beyond); 0 disables")
	shutdownTimeout := flag.Duration("shutdown-timeout", 15*time.Second, "drain deadline for in-flight requests on SIGINT/SIGTERM")
	logLevel := flag.String("log-level", "info", "structured log level on stderr: debug, info, warn, error")
	logJSON := flag.Bool("log-json", false, "emit structured logs as JSON instead of text")
	traceChrome := flag.String("trace-chrome", "", "write a Chrome trace-event JSON file here (one root span per routed request, traceparent-propagated to the shards; merge with tools/tracemerge)")
	flag.Parse()

	if len(shards) == 0 {
		fmt.Fprintln(os.Stderr, "cascade-router: at least one -shard is required")
		os.Exit(1)
	}
	reg := cascade.NewMetricsRegistry()
	var tracer *cascade.Tracer
	if *traceChrome != "" {
		f, err := os.Create(*traceChrome)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cascade-router: trace-chrome: %v\n", err)
			os.Exit(1)
		}
		chrome := cascade.NewChromeTrace(f)
		defer chrome.Close()
		tracer = cascade.NewTracer(cascade.TracerOptions{Chrome: chrome})
	}
	logger := cascade.NewLogger(os.Stderr, *logLevel, *logJSON, tracer.ID())
	router, err := cluster.NewRouter(cluster.RouterConfig{
		Shards:         shards,
		ProbeInterval:  *probeInterval,
		ProbeTimeout:   *probeTimeout,
		ProbeMisses:    *probeMisses,
		HintDepth:      *hintDepth,
		RequestTimeout: *reqTimeout,
		Metrics:        reg,
		Tracer:         tracer,
		Logger:         logger,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "cascade-router: %v\n", err)
		os.Exit(1)
	}
	defer router.Stop()

	httpSrv := serve.NewHTTPServer(router.Handler(), serve.HTTPOptions{
		Addr: *addr, RequestTimeout: *reqTimeout,
	})
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	for i, s := range shards {
		fmt.Printf("shard %d: primary %s", i, s.Primary)
		if s.Standby != "" {
			fmt.Printf(", standby %s", s.Standby)
		}
		fmt.Println()
	}
	fmt.Printf("routing on %s (POST /ingest, POST /score, GET /stats, GET /metrics[?federate=1], GET /healthz, GET /readyz, GET /debug/cluster)\n", *addr)
	logger.Info("routing", "addr", *addr, "shards", len(shards))
	if err := serve.RunGraceful(httpSrv, nil, stop, *shutdownTimeout); err != nil {
		fmt.Fprintf(os.Stderr, "cascade-router: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("drained, bye")
}
