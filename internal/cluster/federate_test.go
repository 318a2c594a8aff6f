package cluster

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func routerGet(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

func TestFederateMergesMemberMetrics(t *testing.T) {
	prim, stby := newStubShard(t, "primary"), newStubShard(t, "standby")
	r, _ := testRouter(t, nil, ShardSpec{Primary: prim.url(), Standby: stby.url()})
	h := r.Handler()
	waitRouterReady(t, h)

	rec := routerGet(t, h, "/metrics?federate=1")
	if rec.Code != http.StatusOK {
		t.Fatalf("federate status %d: %s", rec.Code, rec.Body.String())
	}
	out := rec.Body.String()
	for _, want := range []string{
		// Both members' families, relabeled with shard/role/member and the
		// member's own colliding shard label renamed.
		`stub_last_bid{shard="0",role="primary",member="` + prim.url() + `",exported_shard="local"}`,
		`stub_last_bid{shard="0",role="standby",member="` + stby.url() + `",exported_shard="local"}`,
		// The router's own families ride along unlabeled.
		"router_probe_rtt_seconds",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("federated exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "router_federate_errors_total{") {
		t.Fatalf("healthy scrape relabeled the router's own counter:\n%s", out)
	}
}

func TestFederatePartialOnMemberDown(t *testing.T) {
	prim, stby := newStubShard(t, "primary"), newStubShard(t, "standby")
	r, reg := testRouter(t, nil, ShardSpec{Primary: prim.url(), Standby: stby.url()})
	h := r.Handler()
	waitRouterReady(t, h)
	stby.Kill()

	rec := routerGet(t, h, "/metrics?federate=1")
	if rec.Code != http.StatusOK {
		t.Fatalf("federation must return partial results, not %d: %s", rec.Code, rec.Body.String())
	}
	out := rec.Body.String()
	if !strings.Contains(out, `stub_last_bid{shard="0",role="primary",member="`+prim.url()+`"`) {
		t.Fatalf("live member's metrics missing from partial exposition:\n%s", out)
	}
	// The dead member contributed no scraped samples (the router's own
	// router_probe_rtt_seconds gauge may still mention its URL — that is the
	// router observing the member, not the member's exposition).
	if strings.Contains(out, `stub_last_bid{shard="0",role="standby"`) {
		t.Fatalf("dead member's samples appeared in the exposition:\n%s", out)
	}
	if got := reg.Counter("router_federate_errors_total").Value(); got < 1 {
		t.Fatalf("router_federate_errors_total = %v, want >= 1", got)
	}
	// The rendered errors counter reflects this very request, not a stale
	// pre-scrape snapshot.
	if !strings.Contains(out, "router_federate_errors_total") {
		t.Fatalf("errors counter missing from exposition:\n%s", out)
	}
}

func TestDebugClusterEndpoint(t *testing.T) {
	prim, stby := newStubShard(t, "primary"), newStubShard(t, "standby")
	r, _ := testRouter(t, nil, ShardSpec{Primary: prim.url(), Standby: stby.url()})
	h := r.Handler()
	waitRouterReady(t, h)

	rec := routerGet(t, h, "/debug/cluster")
	if rec.Code != http.StatusOK {
		t.Fatalf("debug/cluster status %d", rec.Code)
	}
	var dbg struct {
		Shards []struct {
			ID      int `json:"id"`
			Primary int `json:"primary"`
			Members []struct {
				URL   string `json:"url"`
				Role  string `json:"role"`
				Alive bool   `json:"alive"`
				Ready bool   `json:"ready"`
			} `json:"members"`
		} `json:"shards"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &dbg); err != nil {
		t.Fatalf("debug/cluster not JSON: %v\n%s", err, rec.Body.String())
	}
	if len(dbg.Shards) != 1 || len(dbg.Shards[0].Members) != 2 {
		t.Fatalf("shape wrong: %+v", dbg)
	}
	m0 := dbg.Shards[0].Members[dbg.Shards[0].Primary]
	if m0.Role != "primary" || !m0.Alive || !m0.Ready {
		t.Fatalf("primary member state: %+v", m0)
	}
}
