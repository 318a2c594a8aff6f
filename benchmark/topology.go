package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/cascade-ml/cascade"
	"github.com/cascade-ml/cascade/internal/cluster"
	"github.com/cascade-ml/cascade/internal/load"
	"github.com/cascade-ml/cascade/internal/models"
	"github.com/cascade-ml/cascade/internal/nn"
	"github.com/cascade-ml/cascade/internal/obs"
	"github.com/cascade-ml/cascade/internal/serve"
	"github.com/cascade-ml/cascade/internal/wal"
)

type topology int

const (
	topoSolo    topology = iota // one server, no WAL
	topoSoloWAL                 // one server, WAL with SyncBatch
	topoCluster                 // router → 2 shards × (primary + semi-sync standby), WAL everywhere
)

const clusterShards = 2

// requestTimeout is cascade-serve's and cascade-router's default per-request
// deadline; the servers run with the shipped defaults, not benchmark tunings.
const requestTimeout = 10 * time.Second

// listener is one handler served on a loopback port.
type listener struct {
	srv  *http.Server
	url  string
	done chan error
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{
		srv:  serve.NewHTTPServer(h, serve.HTTPOptions{RequestTimeout: requestTimeout}),
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { l.done <- l.srv.Serve(ln) }()
	return l, nil
}

// close stops the listener and waits for its serve goroutine. Traffic has
// ended by now, so the graceful drain is short: a connection the client's
// transport dialed but never used counts as busy to Shutdown for five seconds,
// and is simply closed instead.
func (l *listener) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
	defer cancel()
	err := l.srv.Shutdown(ctx)
	if errors.Is(err, context.DeadlineExceeded) {
		err = l.srv.Close()
	}
	if serr := <-l.done; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// member is one serve.Server with the model it wraps: the benchmark keeps the
// model so the quiesced per-layer replays can call it directly.
type member struct {
	srv   *serve.Server
	model models.TGNN
	pred  *nn.MLP
	reg   *obs.Registry
	http  *listener
}

type shard struct {
	primary, standby *member
	sender           *cluster.Sender
	receiver         *cluster.Receiver
}

// deployment is the serving side of one workload: where traffic goes, and
// every piece that must be stopped afterwards.
type deployment struct {
	kind      topology
	url       string       // entry point for the load generator
	front     http.Handler // the entry point's handler, for recorder replays
	members   []*member    // every server; members[0] is the (first) primary
	shards    []shard      // cluster only
	router    *cluster.Router
	routerReg *obs.Registry
	routerLn  *listener
	dir       string // scratch directory holding the WALs
}

// newMember builds one server around a fresh weights-only replica of the run,
// with cascade-serve's default admission limits and breaker.
func newMember(run *cascade.Run, numNodes int, walDir string, tracer *obs.Tracer, extra ...serve.Option) (*member, error) {
	model, pred, err := run.NewScoringReplica()
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	opts := []serve.Option{
		serve.WithRegistry(reg),
		serve.WithLimits(load.Limits{MaxInflight: 16, QueueDepth: 64}),
		serve.WithBreaker(load.BreakerConfig{Cooldown: 5 * time.Second}),
	}
	if tracer != nil {
		opts = append(opts, serve.WithTracer(tracer))
	}
	if walDir != "" {
		opts = append(opts, serve.WithWAL(serve.WALConfig{Dir: walDir, Sync: wal.SyncBatch}))
	}
	opts = append(opts, extra...)
	srv := serve.New(model, pred, numNodes, opts...)
	if _, err := srv.StartWAL(); err != nil {
		return nil, fmt.Errorf("start WAL in %s: %w", walDir, err)
	}
	return &member{srv: srv, model: model, pred: pred, reg: reg}, nil
}

// deploy starts the workload's serving topology on loopback ports.
func deploy(kind topology, run *cascade.Run, numNodes int, scratch string) (*deployment, error) {
	d := &deployment{kind: kind, dir: scratch}
	ok := false
	defer func() {
		if !ok {
			d.close()
		}
	}()
	walDir := func(name string) string {
		if kind == topoSolo {
			return ""
		}
		return filepath.Join(scratch, name)
	}
	start := func(m *member) error {
		l, err := listen(m.srv.Handler())
		if err != nil {
			return err
		}
		m.http = l
		return nil
	}
	if kind != topoCluster {
		m, err := newMember(run, numNodes, walDir("solo"), nil)
		if err != nil {
			return nil, err
		}
		d.members = append(d.members, m)
		if err := start(m); err != nil {
			return nil, err
		}
		d.url, d.front = m.http.url, m.srv.Handler()
		ok = true
		return d, nil
	}

	var specs []cluster.ShardSpec
	for i := 0; i < clusterShards; i++ {
		prim, err := newMember(run, numNodes, walDir(fmt.Sprintf("s%d-primary", i)), nil)
		if err != nil {
			return nil, err
		}
		d.members = append(d.members, prim)
		stby, err := newMember(run, numNodes, walDir(fmt.Sprintf("s%d-standby", i)), nil, serve.WithStandby())
		if err != nil {
			return nil, err
		}
		d.members = append(d.members, stby)
		sh := shard{primary: prim, standby: stby}
		sh.receiver, err = cluster.NewReceiver(cluster.ReceiverConfig{Addr: "127.0.0.1:0", State: stby.srv, Metrics: stby.reg})
		if err != nil {
			return nil, err
		}
		d.shards = append(d.shards, sh) // registered before the sender so close() stops the receiver on error
		sender, err := cluster.NewSender(cluster.SenderConfig{
			Target: sh.receiver.Addr(), Log: prim.srv.WAL(), Snapshot: prim.srv.ReplSnapshot, Metrics: prim.reg,
		})
		if err != nil {
			return nil, err
		}
		d.shards[i].sender = sender
		if err := prim.srv.SetReplicator(sender, serve.ReplOptions{}); err != nil {
			return nil, err
		}
		if err := start(stby); err != nil {
			return nil, err
		}
		if err := start(prim); err != nil {
			return nil, err
		}
		specs = append(specs, cluster.ShardSpec{Primary: prim.http.url, Standby: stby.http.url})
	}
	d.routerReg = obs.NewRegistry()
	router, err := cluster.NewRouter(cluster.RouterConfig{Shards: specs, RequestTimeout: requestTimeout, Metrics: d.routerReg})
	if err != nil {
		return nil, err
	}
	d.router = router
	d.front = router.Handler()
	if d.routerLn, err = listen(d.front); err != nil {
		return nil, err
	}
	d.url = d.routerLn.url
	if err := d.waitReady(5 * time.Second); err != nil {
		return nil, err
	}
	ok = true
	return d, nil
}

// waitReady polls the router's /debug/cluster until its first probe round has
// marked every member alive (a shard whose primary is not yet known alive
// would park writes as hints) and every replication stream is attached.
func (d *deployment) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		rec := httptest.NewRecorder()
		d.front.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/cluster", nil))
		var view struct {
			Shards []struct {
				Members []struct {
					Alive bool `json:"alive"`
				} `json:"members"`
			} `json:"shards"`
		}
		ready := json.Unmarshal(rec.Body.Bytes(), &view) == nil && len(view.Shards) == len(d.shards)
		for _, sh := range view.Shards {
			for _, m := range sh.Members {
				ready = ready && m.Alive
			}
		}
		for _, sh := range d.shards {
			ready = ready && sh.sender.Connected()
		}
		if ready {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster not ready after %s: %s", timeout, rec.Body.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// close stops everything deploy started, waits for it, and removes the WALs.
func (d *deployment) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if d.routerLn != nil {
		keep(d.routerLn.close())
	}
	if d.router != nil {
		d.router.Stop()
	}
	// A sender notices its stop flag only when its tail wait (up to a second)
	// runs out, so stop them side by side.
	var wg sync.WaitGroup
	for _, sh := range d.shards {
		if sh.sender != nil {
			wg.Add(1)
			go func(s *cluster.Sender) { defer wg.Done(); s.Stop() }(sh.sender)
		}
	}
	wg.Wait()
	for _, sh := range d.shards {
		if sh.receiver != nil {
			sh.receiver.Stop()
		}
	}
	for _, m := range d.members {
		if m.http != nil {
			keep(m.http.close())
		}
		keep(m.srv.FlushWAL())
		keep(m.srv.CloseWAL())
	}
	if d.dir != "" {
		keep(os.RemoveAll(d.dir))
	}
	return first
}

// stats reads a member's /stats?full=1 through its handler.
func (m *member) stats() (ingested int64, fingerprint string, err error) {
	rec := httptest.NewRecorder()
	m.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats?full=1", nil))
	var st struct {
		Ingested    int64  `json:"ingested"`
		Fingerprint string `json:"state_fingerprint"`
	}
	if rec.Code != http.StatusOK {
		return 0, "", fmt.Errorf("/stats: status %d", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		return 0, "", err
	}
	if st.Fingerprint == "" {
		return 0, "", errors.New("/stats?full=1 has no state_fingerprint")
	}
	return st.Ingested, st.Fingerprint, nil
}

// primaries lists the members that take writes.
func (d *deployment) primaries() []*member {
	if d.kind != topoCluster {
		return d.members[:1]
	}
	out := make([]*member, len(d.shards))
	for i, sh := range d.shards {
		out[i] = sh.primary
	}
	return out
}
