// failoverScenario: SIGKILL a replicated shard's primary mid-ingest behind a
// live cascade-router and prove the cluster contract — the router promotes the
// standby without restarting, every acked batch (200 direct or 202 hinted)
// survives onto the promoted standby exactly once, and /score answers
// throughout the outage (stale is fine, 5xx is not).
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync/atomic"
	"time"

	"github.com/cascade-ml/cascade"
)

// routerProc is an out-of-process cascade-router. Unlike cascade-serve it has
// no pre-training phase, so the readiness window is short.
type routerProc struct {
	cmd  *exec.Cmd
	base string
	out  *bytes.Buffer
}

func startRouter(bin string, port int, args ...string) (*routerProc, error) {
	p := &routerProc{base: fmt.Sprintf("http://127.0.0.1:%d", port), out: &bytes.Buffer{}}
	p.cmd = exec.Command(bin, append([]string{"-addr", fmt.Sprintf("127.0.0.1:%d", port)}, args...)...)
	p.cmd.Stdout = p.out
	p.cmd.Stderr = p.out
	if err := p.cmd.Start(); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(p.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	p.kill()
	return nil, fmt.Errorf("router on %s never became healthy; output:\n%s", p.base, p.out.String())
}

func (p *routerProc) kill() {
	if p.cmd.Process != nil {
		_ = p.cmd.Process.Kill()
	}
	_ = p.cmd.Wait()
}

// routerStats is the slice of the router's /stats the scenario asserts on.
type routerStats struct {
	Shards []struct {
		Primary int `json:"primary"`
		Hints   int `json:"hints"`
	} `json:"shards"`
	Failovers    int64 `json:"failovers"`
	HintsDropped int64 `json:"hints_dropped"`
	HintsFlushed int64 `json:"hints_flushed"`
}

func fetchRouterStats(base string) (routerStats, error) {
	var st routerStats
	resp, err := http.Get(base + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

func failoverScenario(seed int64) error {
	work, err := os.MkdirTemp("", "cascade-chaos-failover-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	serveBin := filepath.Join(work, "cascade-serve")
	routerBin := filepath.Join(work, "cascade-router")
	for bin, pkg := range map[string]string{serveBin: "./cmd/cascade-serve", routerBin: "./cmd/cascade-router"} {
		build := exec.Command("go", "build", "-o", bin, pkg)
		if out, err := build.CombinedOutput(); err != nil {
			return fmt.Errorf("build %s: %v\n%s", pkg, err, out)
		}
	}
	numNodes := cascade.GenerateDataset("WIKI", 400.0/157474, seed).NumNodes

	ports := make([]int, 4) // standby, primary, repl, router
	for i := range ports {
		if ports[i], err = freePort(); err != nil {
			return err
		}
	}
	stbyPort, primPort, replPort, routerPort := ports[0], ports[1], ports[2], ports[3]
	replAddr := fmt.Sprintf("127.0.0.1:%d", replPort)

	// Standby first so its replication listener is up when the primary dials.
	// Same seed on both: replication apply assumes identical pre-trained state.
	standby, err := startServe(serveBin, filepath.Join(work, "wal-stby"), seed, stbyPort, "-repl-listen", replAddr)
	if err != nil {
		return fmt.Errorf("standby: %w", err)
	}
	defer standby.stop()
	primary, err := startServe(serveBin, filepath.Join(work, "wal-prim"), seed, primPort, "-repl-target", replAddr)
	if err != nil {
		return fmt.Errorf("primary: %w", err)
	}
	defer primary.kill()

	router, err := startRouter(routerBin, routerPort,
		"-shard", fmt.Sprintf("%s,%s", primary.base, standby.base),
		"-probe-interval", "40ms", "-probe-misses", "3")
	if err != nil {
		return fmt.Errorf("router: %w", err)
	}
	defer router.kill()

	// Concurrent /score load through the router for the whole scenario.
	// Availability is the contract: every response must be 2xx — the router
	// falls back to the standby (stale-ok) during the outage, never 5xx.
	scoreBody := []byte(fmt.Sprintf(`{"pairs":[{"src":0,"dst":%d}],"time":3e9}`, numNodes/2))
	var scoreCount, scoreBad atomic.Int64
	loadStop := make(chan struct{})
	loadDone := make(chan struct{})
	go func() {
		defer close(loadDone)
		for {
			select {
			case <-loadStop:
				return
			default:
			}
			status, body, err := postJSON(router.base+"/score", scoreBody)
			if err != nil {
				scoreBad.Add(1)
				fmt.Fprintf(os.Stderr, "chaos: failover: /score transport error: %v\n", err)
				return
			}
			scoreCount.Add(1)
			if status != http.StatusOK {
				scoreBad.Add(1)
				fmt.Fprintf(os.Stderr, "chaos: failover: /score returned %d during outage: %s\n", status, body)
			}
		}
	}()

	// Sequential ingest through the router. Before the kill every batch must
	// land directly (200); after it, batches are hinted (202) until the
	// standby is promoted and the queue drains — never 5xx, never lost.
	const killAfter, total = 40, 70
	direct, hinted := 0, 0
	for i := 0; i < total; i++ {
		status, body, err := postJSON(router.base+"/ingest", chaosBatch(i, numNodes))
		if err != nil {
			return fmt.Errorf("ingest %d through router: %w", i, err)
		}
		switch status {
		case http.StatusOK:
			direct++
		case http.StatusAccepted:
			hinted++
		default:
			return fmt.Errorf("ingest %d through router: status %d body %s", i, status, body)
		}
		if i == killAfter-1 {
			if hinted > 0 {
				return fmt.Errorf("%d batches hinted before the kill", hinted)
			}
			// SIGKILL, not SIGTERM: no drain, no flush — the in-flight
			// replication stream just stops.
			if err := primary.cmd.Process.Kill(); err != nil {
				return fmt.Errorf("kill primary: %w", err)
			}
		}
	}
	_ = primary.cmd.Wait()
	if hinted == 0 {
		return fmt.Errorf("no batch was hinted: the outage window was never observed (ingest too slow or failover too fast to exercise handoff)")
	}

	// The router must promote the standby and drain every hint on its own —
	// no router restart, no client retry.
	var st routerStats
	deadline := time.Now().Add(20 * time.Second)
	for {
		if st, err = fetchRouterStats(router.base); err == nil &&
			st.Failovers >= 1 && len(st.Shards) == 1 && st.Shards[0].Hints == 0 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("router never finished failover+drain: stats %+v err %v; output:\n%s", st, err, router.out.String())
		}
		time.Sleep(50 * time.Millisecond)
	}
	close(loadStop)
	<-loadDone
	if st.Failovers != 1 {
		return fmt.Errorf("want exactly 1 failover, got %d", st.Failovers)
	}
	if st.Shards[0].Primary != 1 {
		return fmt.Errorf("router still routes writes to the dead member (primary index %d)", st.Shards[0].Primary)
	}
	if st.HintsDropped != 0 {
		return fmt.Errorf("%d hinted batches dropped — acked-but-lost", st.HintsDropped)
	}
	if st.HintsFlushed < int64(hinted) {
		return fmt.Errorf("only %d of %d hinted batches flushed", st.HintsFlushed, hinted)
	}
	if bad := scoreBad.Load(); bad != 0 {
		return fmt.Errorf("%d /score responses were not 200 during the scenario (stale-ok is allowed, 5xx is not)", bad)
	}
	if scoreCount.Load() == 0 {
		return fmt.Errorf("/score load loop never completed a request")
	}

	// Exactly-once: the promoted standby must hold all `total` batches — the
	// replicated prefix plus the replayed hints, each applied once (bid dedup
	// swallows any batch that was both replicated and replayed).
	fpPromoted, applied, err := statsFingerprint(standby.base)
	if err != nil {
		return fmt.Errorf("promoted standby stats: %w", err)
	}
	if applied != total {
		return fmt.Errorf("promoted standby applied %d batches, want %d (lost or duplicated writes)", applied, total)
	}

	// Reference: a solo process ingesting the same batches in order must land
	// on the bitwise-identical state.
	refPort, err := freePort()
	if err != nil {
		return err
	}
	ref, err := startServe(serveBin, filepath.Join(work, "wal-ref"), seed, refPort)
	if err != nil {
		return fmt.Errorf("reference process: %w", err)
	}
	defer ref.stop()
	for i := 0; i < total; i++ {
		status, body, err := postJSON(ref.base+"/ingest", chaosBatch(i, numNodes))
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("reference ingest %d: status %d err %v body %s", i, status, err, body)
		}
	}
	fpRef, _, err := statsFingerprint(ref.base)
	if err != nil {
		return err
	}
	if fpPromoted != fpRef {
		return fmt.Errorf("promoted standby state %s != reference state %s after %d batches", fpPromoted, fpRef, total)
	}
	// Post-failover writes flow through the promoted standby directly.
	status, body, err := postJSON(router.base+"/ingest", chaosBatch(total, numNodes))
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("ingest after failover: status %d err %v body %s", status, err, body)
	}
	fmt.Printf("chaos: failover: SIGKILL primary after %d acks; %d batches hinted then flushed, 1 failover, %d /score responses all 200, promoted-standby fingerprint %s bitwise-equal to reference\n",
		killAfter, hinted, scoreCount.Load(), fpPromoted)
	return nil
}
