// Command chaos is the deterministic chaos harness: it drives the repo's
// fault-injection points against real components — an overloaded scoring
// server, a faulted WAL, a killed primary — and verifies the resilience
// contracts hold (shed-don't-collapse, zero acked-but-lost). Faults fire on
// exact hit counts, not timers or dice, so a failing scenario replays
// byte-for-byte.
//
//	chaos -scenario overload   # 10× burst against a saturated /score
//	chaos -scenario walfault   # injected fsync/disk-full → read-only /score, zero acked-but-lost
//	chaos -scenario crash      # SIGKILL cascade-serve mid-ingest, recover bitwise from the WAL
//	chaos -scenario failover   # SIGKILL a replicated primary behind the router; standby promoted, hints drained, zero lost
//	chaos -scenario all        # everything (the make chaossmoke gate)
package main

import (
	"bytes"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"time"

	"github.com/cascade-ml/cascade"
	"github.com/cascade-ml/cascade/internal/load"
	"github.com/cascade-ml/cascade/internal/obs"
	"github.com/cascade-ml/cascade/internal/resilience/faultinject"
	"github.com/cascade-ml/cascade/internal/serve"
)

func main() {
	scenario := flag.String("scenario", "all", "overload, walfault, crash, failover, or all")
	seed := flag.Int64("seed", 7, "random seed for dataset generation")
	flag.Parse()

	known := map[string]bool{"overload": true, "walfault": true, "crash": true, "failover": true}
	if *scenario != "all" && !known[*scenario] {
		fmt.Fprintf(os.Stderr, "chaos: unknown scenario %q\n", *scenario)
		os.Exit(2)
	}
	failed := false
	runScenario := func(name string, fn func(int64) error) {
		if *scenario != "all" && *scenario != name {
			return
		}
		if err := fn(*seed); err != nil {
			fmt.Fprintf(os.Stderr, "chaos: FAIL %s: %v\n", name, err)
			failed = true
			return
		}
		fmt.Printf("chaos: OK   %s\n", name)
	}
	runScenario("overload", overloadScenario)
	runScenario("walfault", walFaultScenario)
	runScenario("crash", crashScenario)
	runScenario("failover", failoverScenario)
	if failed {
		os.Exit(1)
	}
}

// overloadScenario saturates a tightly-limited scoring server with 10× its
// total admission capacity while every fresh score is artificially slow, and
// checks the shed-don't-collapse contract: every response is 200 or 429,
// both outcomes occur, 429s carry Retry-After, and admitted latency stays
// bounded by the queue depth times the injected service time.
func overloadScenario(seed int64) error {
	ds := cascade.GenerateDataset("WIKI", 0.002, seed)
	run, err := cascade.NewRun(cascade.RunConfig{
		Dataset: ds, Model: "JODIE", Scheduler: cascade.SchedTGL,
		BaseBatch: 50, Epochs: 1, MemoryDim: 8, TimeDim: 4, Seed: seed,
	})
	if err != nil {
		return err
	}
	const (
		maxInflight = 2
		queueDepth  = 2
		serviceTime = 40 * time.Millisecond
	)
	inj := faultinject.New()
	inj.ArmDelay(faultinject.PointServeSlowScore, serviceTime) // every score is slow
	reg := obs.NewRegistry()
	srv := serve.New(run.Model(), run.Trainer().Predictor(), ds.NumNodes,
		serve.WithRegistry(reg),
		serve.WithLimits(load.Limits{MaxInflight: maxInflight, QueueDepth: queueDepth}),
		serve.WithInjector(inj),
	)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	clients := 10 * (maxInflight + queueDepth) // the 10× burst
	type outcome struct {
		status  int
		latency time.Duration
		retry   string
	}
	results := make([]outcome, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"pairs":[{"src":%d,"dst":%d}],"time":1e6}`, i%4, 4+i%4)
			t0 := time.Now()
			resp, err := http.Post(ts.URL+"/score", "application/json", bytes.NewReader([]byte(body)))
			if err != nil {
				results[i] = outcome{status: -1}
				return
			}
			resp.Body.Close()
			results[i] = outcome{status: resp.StatusCode, latency: time.Since(t0), retry: resp.Header.Get("Retry-After")}
		}(i)
	}
	wg.Wait()

	var ok200, shed429 int
	var admitted []time.Duration
	for i, r := range results {
		switch r.status {
		case http.StatusOK:
			ok200++
			admitted = append(admitted, r.latency)
		case http.StatusTooManyRequests:
			shed429++
			if r.retry == "" {
				return fmt.Errorf("client %d: 429 without Retry-After", i)
			}
		default:
			return fmt.Errorf("client %d: status %d (want 200 or 429)", i, r.status)
		}
	}
	if ok200 == 0 || shed429 == 0 {
		return fmt.Errorf("burst of %d: %d admitted, %d shed — overload must shed some and serve some", clients, ok200, shed429)
	}
	sort.Slice(admitted, func(a, b int) bool { return admitted[a] < admitted[b] })
	p99 := admitted[len(admitted)*99/100]
	// Worst admitted case: wait behind the full queue plus its own service.
	bound := time.Duration(maxInflight+queueDepth+1)*serviceTime + 2*time.Second
	if p99 > bound {
		return fmt.Errorf("admitted p99 %v exceeds bound %v", p99, bound)
	}
	if got := reg.Counter("load_shed_total").Value(); got != int64(shed429) {
		return fmt.Errorf("load_shed_total %d, clients saw %d sheds", got, shed429)
	}
	fmt.Printf("chaos: overload: %d clients → %d admitted (p99 %v), %d shed with Retry-After\n",
		clients, ok200, p99.Round(time.Millisecond), shed429)
	return nil
}

// walFaultScenario is the disk-fault half of the durability contract: with
// the WAL under injected fsync failure, /ingest degrades to a typed 503
// (code "wal_unavailable") while /score keeps serving, and every batch that
// was acked before the fault is recoverable — zero acked-but-lost events.
func walFaultScenario(seed int64) error {
	dir, err := os.MkdirTemp("", "cascade-chaos-wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	newServer := func(walDir string, inj *faultinject.Injector) (*serve.Server, *serve.WALRecovery, int, error) {
		ds := cascade.GenerateDataset("WIKI", 0.002, seed)
		run, err := cascade.NewRun(cascade.RunConfig{
			Dataset: ds, Model: "JODIE", Scheduler: cascade.SchedTGL,
			BaseBatch: 50, Epochs: 1, MemoryDim: 8, TimeDim: 4, Seed: seed,
		})
		if err != nil {
			return nil, nil, 0, err
		}
		var opts []serve.Option
		if walDir != "" {
			opts = append(opts, serve.WithWAL(serve.WALConfig{Dir: walDir}))
		}
		if inj != nil {
			opts = append(opts, serve.WithInjector(inj))
		}
		s := serve.New(run.Model(), run.Trainer().Predictor(), ds.NumNodes, opts...)
		var rec *serve.WALRecovery
		if walDir != "" {
			if rec, err = s.StartWAL(); err != nil {
				return nil, nil, 0, err
			}
		}
		return s, rec, ds.NumNodes, nil
	}

	inj := faultinject.New()
	srv, _, numNodes, err := newServer(dir, inj)
	if err != nil {
		return err
	}
	ts := httptest.NewServer(srv.Handler())
	const acked = 3
	for i := 0; i < acked; i++ {
		status, _, err := postJSON(ts.URL+"/ingest", chaosBatch(i, numNodes))
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("ingest %d: status %d err %v", i, status, err)
		}
	}
	fpBefore, appliedBefore, err := statsFingerprint(ts.URL)
	if err != nil {
		return err
	}
	if appliedBefore != acked {
		return fmt.Errorf("applied %d after %d acked batches", appliedBefore, acked)
	}

	// The disk starts refusing fsync: the next ingest must be rejected with
	// the typed 503 and must not mutate the model.
	inj.Arm(faultinject.PointWALSync)
	status, body, err := postJSON(ts.URL+"/ingest", chaosBatch(acked, numNodes))
	if err != nil {
		return err
	}
	if status != http.StatusServiceUnavailable || !bytes.Contains(body, []byte(`"code":"wal_unavailable"`)) {
		return fmt.Errorf("ingest under fsync fault: status %d body %s", status, body)
	}
	// Sticky, still typed.
	if status, _, _ = postJSON(ts.URL+"/ingest", chaosBatch(acked, numNodes)); status != http.StatusServiceUnavailable {
		return fmt.Errorf("second ingest under fault: status %d", status)
	}
	// /score keeps serving read-only.
	scoreBody := []byte(`{"pairs":[{"src":0,"dst":33}],"time":2e9}`)
	if status, _, err = postJSON(ts.URL+"/score", scoreBody); err != nil || status != http.StatusOK {
		return fmt.Errorf("score while degraded: status %d err %v", status, err)
	}
	// /readyz reports the reason.
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		return fmt.Errorf("readyz while degraded: %d", resp.StatusCode)
	}
	fpAfter, appliedAfter, err := statsFingerprint(ts.URL)
	if err != nil {
		return err
	}
	if fpAfter != fpBefore || appliedAfter != appliedBefore {
		return fmt.Errorf("rejected batches mutated state: %s/%d → %s/%d", fpBefore, appliedBefore, fpAfter, appliedAfter)
	}
	ts.Close()
	srv.CloseWAL()

	// Recovery: a fresh identically-trained process replays the log. Every
	// acked batch must be there; the batch whose fsync failed was appended
	// but never acked, so the log may hold at most one extra record beyond
	// the acks — standard at-least-once for the unacked suffix.
	srv2, rec, _, err := newServer(dir, nil)
	if err != nil {
		return err
	}
	defer srv2.CloseWAL()
	if rec.ReplayedRecords < acked || rec.ReplayedRecords > acked+1 {
		return fmt.Errorf("recovery replayed %d batches, want %d or %d", rec.ReplayedRecords, acked, acked+1)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	fpRecovered, _, err := statsFingerprint(ts2.URL)
	if err != nil {
		return err
	}
	// Reference: a WAL-less server ingesting exactly the recovered prefix
	// must land on the identical state, bitwise.
	ref, _, _, err := newServer("", nil)
	if err != nil {
		return err
	}
	tsRef := httptest.NewServer(ref.Handler())
	defer tsRef.Close()
	for i := 0; i < int(rec.ReplayedRecords); i++ {
		if status, body, err := postJSON(tsRef.URL+"/ingest", chaosBatch(i, numNodes)); err != nil || status != http.StatusOK {
			return fmt.Errorf("reference ingest %d: status %d err %v body %s", i, status, err, body)
		}
	}
	fpRef, _, err := statsFingerprint(tsRef.URL)
	if err != nil {
		return err
	}
	if fpRecovered != fpRef {
		return fmt.Errorf("recovered fingerprint %s != reference %s over %d batches", fpRecovered, fpRef, rec.ReplayedRecords)
	}
	fmt.Printf("chaos: walfault: %d acked batches survived an fsync fault; degraded 503s typed, /score stayed up, recovered %d batches bitwise (%s)\n",
		acked, rec.ReplayedRecords, fpRecovered)
	return nil
}
