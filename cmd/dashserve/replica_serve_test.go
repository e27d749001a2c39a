package main

// HTTP-layer replication tests: the /v1/replication mount, min_epoch
// parsing, the replica serving surface (read-only writes, readiness
// report), and bounded-staleness forwarding with its loop guard.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	dash "repro"
	"repro/internal/harness"
)

// leaderAndReplicaMux boots a durable leader mux behind a real httptest
// server (the replica needs a live transport to bootstrap over) and a
// replica mux tailing it. Returns both muxes and the leader's base URL.
func leaderAndReplicaMux(t *testing.T, shards int) (leaderMux http.Handler, replicaMux http.Handler, leaderURL string) {
	t.Helper()
	db, app, err := harness.Fooddb()
	if err != nil {
		t.Fatal(err)
	}
	idx, _, err := dash.Build(context.Background(), db, app, dash.BuildOptions{Algorithm: dash.AlgReference})
	if err != nil {
		t.Fatal(err)
	}
	bound0, err := app.Bound()
	if err != nil {
		t.Fatal(err)
	}
	leaderEng, err := dash.Open(context.Background(), idx, app,
		dash.WithShards(shards), dash.WithDataDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { leaderEng.(interface{ Close() error }).Close() })
	leaderMux, _ = newMux(leaderEng, app, db, bound0.SelAttrKinds(), serveConfig{searchTimeout: 5 * time.Second})
	srv := httptest.NewServer(leaderMux)
	t.Cleanup(srv.Close)
	rep, err := dash.OpenReplica(context.Background(), srv.URL, app,
		dash.WithReplicaPoll(100*time.Millisecond, 5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rep.(io.Closer).Close() })
	bound, err := app.Bound()
	if err != nil {
		t.Fatal(err)
	}
	replicaMux, _ = newMux(rep, app, db, bound.SelAttrKinds(), serveConfig{searchTimeout: 5 * time.Second})
	waitServeConverged(t, leaderMux, replicaMux)
	return leaderMux, replicaMux, srv.URL
}

// waitServeConverged polls both admin stats until the replica's applied
// epochs reach the leader's durable epochs.
func waitServeConverged(t *testing.T, leaderMux, replicaMux http.Handler) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		var leader struct {
			Durability *struct {
				PerShard []struct {
					DurableEpoch uint64 `json:"durable_epoch"`
				} `json:"per_shard"`
			} `json:"durability"`
		}
		var replica struct {
			Replication *struct {
				PerShard []struct {
					AppliedEpoch uint64 `json:"applied_epoch"`
				} `json:"per_shard"`
			} `json:"replication"`
		}
		if err := json.Unmarshal(get(t, leaderMux, "/v1/admin/stats").Body.Bytes(), &leader); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(get(t, replicaMux, "/v1/admin/stats").Body.Bytes(), &replica); err != nil {
			t.Fatal(err)
		}
		ok := leader.Durability != nil && replica.Replication != nil &&
			len(leader.Durability.PerShard) == len(replica.Replication.PerShard)
		if ok {
			for i := range leader.Durability.PerShard {
				if replica.Replication.PerShard[i].AppliedEpoch != leader.Durability.PerShard[i].DurableEpoch {
					ok = false
					break
				}
			}
		}
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("serving pair never converged:\nleader %+v\nreplica %+v", leader, replica)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestReplicationMount: durable engines expose /v1/replication; in-memory
// engines do not.
func TestReplicationMount(t *testing.T) {
	mux, _ := durableMux(t)
	rec := get(t, mux, dash.ReplicationPrefix+"/manifest")
	if rec.Code != http.StatusOK {
		t.Fatalf("manifest: status %d, body %q", rec.Code, rec.Body.String())
	}
	var man struct {
		Shards   int `json:"shards"`
		PerShard []struct {
			DurableEpoch uint64 `json:"durable_epoch"`
			Snapshots    []struct {
				Epoch uint64 `json:"epoch"`
				Size  int64  `json:"size"`
			} `json:"snapshots"`
		} `json:"per_shard"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &man); err != nil {
		t.Fatalf("manifest not JSON: %v", err)
	}
	if man.Shards != 2 || len(man.PerShard) != 2 || len(man.PerShard[0].Snapshots) == 0 {
		t.Errorf("manifest = %+v, want 2 shards with snapshots", man)
	}

	plain, _ := testMux(t)
	if rec := get(t, plain, dash.ReplicationPrefix+"/manifest"); rec.Code != http.StatusNotFound {
		t.Errorf("in-memory engine serves replication: status %d", rec.Code)
	}
}

// TestSearchMinEpochParam: min_epoch parses into the request and rejects
// garbage with a 400 naming the parameter. A satisfiable bound on a
// non-routing engine is a no-op.
func TestSearchMinEpochParam(t *testing.T) {
	mux, _ := testMux(t)
	if rec := get(t, mux, "/v1/search?q=burger&k=2&s=20&min_epoch=1"); rec.Code != http.StatusOK {
		t.Errorf("min_epoch=1: status %d, body %q", rec.Code, rec.Body.String())
	}
	rec := get(t, mux, "/v1/search?q=burger&min_epoch=-3")
	if rec.Code != http.StatusBadRequest {
		t.Errorf("min_epoch=-3: status %d, want 400", rec.Code)
	} else if !strings.Contains(rec.Body.String(), "min_epoch parameter") {
		t.Errorf("min_epoch error %q does not name the parameter", rec.Body.String())
	}
}

// TestReplicaServing: the full two-process shape in-process — a replica
// bootstrapped over HTTP answers /v1/search byte-identically to its
// leader, refuses writes with 421 not_leader, and advertises its tail on
// /v1/readyz and /v1/admin/stats.
func TestReplicaServing(t *testing.T) {
	leaderMux, replicaMux, _ := leaderAndReplicaMux(t, 2)

	// Mutate through the leader's public API, then re-converge.
	rec := postJSON(t, leaderMux, "/v1/admin/apply",
		`{"changes":[{"op":"update","id":["American","10"],"terms":{"burger":7},"total":7}]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("leader apply: status %d, body %q", rec.Code, rec.Body.String())
	}
	waitServeConverged(t, leaderMux, replicaMux)

	for _, q := range []string{"burger", "coffee", "burger&q=noodles", "zzz-absent"} {
		url := "/v1/search?q=" + q + "&k=3&s=20"
		lrec, rrec := get(t, leaderMux, url), get(t, replicaMux, url)
		if lrec.Code != http.StatusOK || rrec.Code != http.StatusOK {
			t.Fatalf("%s: status leader %d / replica %d", url, lrec.Code, rrec.Code)
		}
		if lrec.Body.String() != rrec.Body.String() {
			t.Errorf("%s: bodies diverge\nleader  %s\nreplica %s", url, lrec.Body.String(), rrec.Body.String())
		}
	}

	// Writes on the replica redirect to the leader with 421.
	rec = postJSON(t, replicaMux, "/v1/admin/apply",
		`{"changes":[{"op":"update","id":["American","10"],"terms":{"burger":1},"total":1}]}`)
	if rec.Code != http.StatusMisdirectedRequest {
		t.Fatalf("replica write: status %d, want 421 (body %q)", rec.Code, rec.Body.String())
	}
	if errorCode(t, rec) != "not_leader" {
		t.Errorf("replica write code = %q", errorCode(t, rec))
	}

	// Readiness advertises the tail state for routing leaders to poll.
	var ready struct {
		Status      string `json:"status"`
		Replication *struct {
			State      string `json:"state"`
			MinApplied uint64 `json:"min_applied_epoch"`
		} `json:"replication"`
	}
	rec = get(t, replicaMux, "/v1/readyz")
	if rec.Code != http.StatusOK {
		t.Fatalf("replica readyz: status %d", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &ready); err != nil {
		t.Fatal(err)
	}
	if ready.Status != "ready" || ready.Replication == nil || ready.Replication.State != "tailing" {
		t.Errorf("replica readyz = %+v (replication %+v)", ready, ready.Replication)
	}
}

// TestReplicaRefusesQueuedWrites: the deferred write modes are writes
// like any other, so a replica answers them 421 not_leader too.
func TestReplicaRefusesQueuedWrites(t *testing.T) {
	_, replicaMux, _ := leaderAndReplicaMux(t, 1)
	for name, body := range map[string]string{
		"queue": `{"mode":"queue","changes":[{"op":"update","id":["American","10"],"terms":{"burger":1},"total":1}]}`,
		"flush": `{"mode":"flush"}`,
	} {
		rec := postJSON(t, replicaMux, "/v1/admin/apply", body)
		if rec.Code != http.StatusMisdirectedRequest {
			t.Errorf("replica %s: status %d, want 421 (body %q)", name, rec.Code, rec.Body.String())
		} else if code := errorCode(t, rec); code != "not_leader" {
			t.Errorf("replica %s: code %q, want not_leader", name, code)
		}
	}
}

// TestReplicaForwardsUnsatisfiableReads: a min_epoch the replica has not
// applied forwards to the leader (X-Dash-Served-By names it); the
// forwarded-request loop guard instead surfaces 503 replica_behind.
func TestReplicaForwardsUnsatisfiableReads(t *testing.T) {
	// One shard: MinApplied tracks the single journal, so a low min_epoch
	// really is satisfiable locally (a never-written shard pins the 2-shard
	// leader's minimum at its seed epoch). One apply moves the epoch off 0
	// so a positive bound can be satisfiable at all.
	leaderMux, replicaMux, leaderURL := leaderAndReplicaMux(t, 1)
	rec0 := postJSON(t, leaderMux, "/v1/admin/apply",
		`{"changes":[{"op":"update","id":["American","10"],"terms":{"burger":4},"total":4}]}`)
	if rec0.Code != http.StatusOK {
		t.Fatalf("leader apply: status %d, body %q", rec0.Code, rec0.Body.String())
	}
	waitServeConverged(t, leaderMux, replicaMux)

	var stats struct {
		Replication *struct {
			MinApplied uint64 `json:"min_applied_epoch"`
		} `json:"replication"`
	}
	if err := json.Unmarshal(get(t, replicaMux, "/v1/admin/stats").Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	future := stats.Replication.MinApplied + 100000
	url := fmt.Sprintf("/v1/search?q=burger&k=2&s=20&min_epoch=%d", future)

	// The leader serves forwarded reads from its own (newest) view, so the
	// replica proxies rather than failing the client.
	rec := get(t, replicaMux, url)
	if rec.Code != http.StatusOK {
		t.Fatalf("forwarded read: status %d, body %q", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get(hdrServedBy); got != strings.TrimRight(leaderURL, "/") {
		t.Errorf("served-by = %q, want leader %q", got, leaderURL)
	}

	// A request already carrying the forwarded marker must not bounce
	// again: the replica answers 503 replica_behind with a retry hint.
	req := httptest.NewRequest(http.MethodGet, url, nil)
	req.Header.Set(hdrForwarded, "1")
	loop := httptest.NewRecorder()
	replicaMux.ServeHTTP(loop, req)
	if loop.Code != http.StatusServiceUnavailable {
		t.Fatalf("loop-guarded read: status %d, want 503 (body %q)", loop.Code, loop.Body.String())
	}
	if errorCode(t, loop) != "replica_behind" {
		t.Errorf("loop-guarded code = %q", errorCode(t, loop))
	}
	if loop.Header().Get("Retry-After") == "" {
		t.Error("replica_behind response missing Retry-After")
	}

	// A satisfiable min_epoch is served locally: no served-by marker.
	local := get(t, replicaMux, "/v1/search?q=burger&k=2&s=20&min_epoch=1")
	if local.Code != http.StatusOK || local.Header().Get(hdrServedBy) != "" {
		t.Errorf("local read: status %d, served-by %q", local.Code, local.Header().Get(hdrServedBy))
	}
}
