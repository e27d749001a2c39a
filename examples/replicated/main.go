// Replicated demonstrates the replicated serving tier: a durable leader
// exposing its replication transport, two journal-tailing read replicas
// bootstrapped from the leader's snapshots, and bounded-staleness read
// routing across the fleet.
//
// The walk-through:
//
//  1. Open a durable leader over fooddb and mount its replication
//     handler (snapshot bootstrap + journal tail) under /v1/replication.
//  2. Boot two replicas with dash.OpenReplica — the same handle type Open
//     returns, read-only. Each bootstraps from the leader's newest
//     checkpoint, tails the journal, and serves searches byte-identical to
//     the leader at the same epoch.
//  3. Apply mutations on the leader and watch both replicas converge.
//  4. The lagging-replica scenario: sever replica B's transport, keep
//     mutating, and watch the leader's router stop placing reads on B
//     once it lags past the staleness bound — then sever A as well and
//     watch routing fall back to the leader itself. B keeps serving its
//     stale-but-consistent view the whole time.
//  5. Heal B and watch it re-converge without a restart.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	dash "repro"
	"repro/internal/fooddb"
	"repro/internal/relation"
)

// severableTransport fails every request while severed — the example's
// stand-in for a network partition between replica and leader.
type severableTransport struct{ severed atomic.Bool }

func (s *severableTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if s.severed.Load() {
		return nil, errors.New("network partition (demo)")
	}
	return http.DefaultTransport.RoundTrip(r)
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx := context.Background()
	db := fooddb.New()
	app, err := dash.Analyze(fooddb.ServletSource, fooddb.BaseURL)
	if err != nil {
		return err
	}
	if err := app.Bind(db); err != nil {
		return err
	}
	idx, _, err := dash.Build(ctx, db, app, dash.BuildOptions{Algorithm: dash.AlgReference})
	if err != nil {
		return err
	}

	// The replicas' readiness endpoints must exist before the leader's
	// router starts polling them, and the replicas need the leader's URL
	// to bootstrap — so reserve the replica listeners first.
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	urlA := "http://" + lnA.Addr().String()
	urlB := "http://" + lnB.Addr().String()

	// 1. Durable leader with bounded-staleness routing over the fleet: a
	// read with no explicit min_epoch may land on any replica within 2
	// epochs of the leader's current epoch.
	dir, err := os.MkdirTemp("", "dash-replicated-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	leader, err := dash.Open(ctx, idx, app,
		dash.WithDataDir(dir),
		dash.WithReplicas(urlA, urlB),
		dash.WithStalenessBound(2))
	if err != nil {
		return err
	}
	defer leader.(io.Closer).Close()

	leaderMux := http.NewServeMux()
	leaderMux.Handle(dash.ReplicationPrefix+"/",
		http.StripPrefix(dash.ReplicationPrefix, leader.(dash.Replicable).ReplicationHandler()))
	lnLeader, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go http.Serve(lnLeader, leaderMux)
	leaderURL := "http://" + lnLeader.Addr().String()
	fmt.Printf("leader serving replication at %s%s\n", leaderURL, dash.ReplicationPrefix)

	// 2. Two replicas: A on a healthy link, B behind a severable one.
	bTransport := &severableTransport{}
	repA, err := dash.OpenReplica(ctx, leaderURL, app,
		dash.WithReplicaPoll(200*time.Millisecond, 20*time.Millisecond))
	if err != nil {
		return err
	}
	defer repA.(io.Closer).Close()
	repB, err := dash.OpenReplica(ctx, leaderURL, app,
		dash.WithReplicaPoll(200*time.Millisecond, 20*time.Millisecond),
		dash.WithReplicaTransport(&http.Client{Transport: bTransport}))
	if err != nil {
		return err
	}
	defer repB.(io.Closer).Close()
	srvA := serveReadyz(lnA, repA)
	defer srvA.Close()
	srvB := serveReadyz(lnB, repB)
	defer srvB.Close()
	fmt.Printf("replica A at %s, replica B at %s (bootstrapped from leader snapshots)\n", urlA, urlB)

	// 3. Mutate through the leader; the journal tail carries the deltas.
	for i := 0; i < 3; i++ {
		if _, err := leader.Apply(ctx, insertDelta(i)); err != nil {
			return err
		}
	}
	waitConverged("A", repA, leader)
	waitConverged("B", repB, leader)
	showSearch("leader ", leader)
	showSearch("replica A", repA)
	showSearch("replica B", repB)

	// 4. The lagging replica: partition B, wait until its tail loop has
	// actually hit the partition (an in-flight long-poll can still carry
	// records), then keep writing. The staleness bound is 2 epochs, so
	// after 4 more mutations B no longer qualifies.
	fmt.Println("\n-- partitioning replica B, applying 4 more mutations --")
	bTransport.severed.Store(true)
	waitSevered(repB)
	for i := 3; i < 7; i++ {
		if _, err := leader.Apply(ctx, insertDelta(i)); err != nil {
			return err
		}
	}
	waitConverged("A", repA, leader)
	showRouting(leader, "B lags past the bound: reads placed on A only", true)

	// B still serves — its last applied view, consistent if stale.
	showSearch("replica B (stale)", repB)

	// Take A down entirely (its readiness endpoint stops answering):
	// nobody qualifies, and the router reports fallback — the leader
	// serves its own reads.
	srvA.Close()
	repA.(io.Closer).Close()
	waitUnhealthy(leader, urlA)
	showRouting(leader, "no replica qualifies: bounded-staleness falls back to the leader", false)

	// 5. Heal the partition: B re-converges from its cursor, no restart.
	fmt.Println("\n-- healing replica B --")
	bTransport.severed.Store(false)
	waitConverged("B", repB, leader)
	showSearch("replica B (healed)", repB)
	return nil
}

// serveReadyz publishes a replica's tail report the way dashserve's
// /v1/readyz does — the shape the leader-side router polls. Returns the
// server so the demo can take the endpoint down (Close also severs
// keep-alive connections, which closing the listener alone would not).
func serveReadyz(ln net.Listener, rep dash.Handle) *http.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{
			"status":      "ready",
			"replication": rep.Stats().Replication,
		})
	})
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	return srv
}

func insertDelta(i int) dash.Delta {
	return dash.Delta{Changes: []dash.FragmentChange{{
		Op:         dash.OpInsertFragment,
		ID:         dash.FragmentID{relation.String("Nordic"), relation.Int(int64(100 + i))},
		TermCounts: map[string]int64{"herring": int64(i + 1), "rye": 1},
		TotalTerms: int64(i + 2),
	}}}
}

func waitConverged(name string, rep, leader dash.Handle) {
	lead := leader.Stats().Durability.PerShard[0].DurableEpoch
	for rep.Stats().Replication.MinApplied < lead {
		time.Sleep(20 * time.Millisecond)
	}
	fmt.Printf("replica %s converged at epoch %d\n", name, rep.Stats().Replication.MinApplied)
}

func waitSevered(rep dash.Handle) {
	for rep.Stats().Replication.State != "severed" {
		time.Sleep(20 * time.Millisecond)
	}
}

// waitUnhealthy blocks until the leader's router notices a replica
// stopped answering readiness polls.
func waitUnhealthy(leader dash.Handle, url string) {
	for {
		for _, rs := range leader.Stats().Replicas.Replicas {
			if rs.URL == url && !rs.Healthy {
				return
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func showSearch(name string, s dash.Searcher) {
	results, err := s.Search(context.Background(), dash.Request{
		Keywords: []string{"herring"}, K: 3, SizeThreshold: 25,
	})
	if err != nil {
		fmt.Printf("%s: search failed: %v\n", name, err)
		return
	}
	fmt.Printf("%s: %d results for \"herring\"", name, len(results))
	if len(results) > 0 {
		fmt.Printf(", top %s (score %.3f)", results[0].URL, results[0].Score)
	}
	fmt.Println()
}

// showRouting polls the leader's placement decision until the router's
// ~500ms readiness poll catches up with the world and the decision takes
// the expected shape, then prints where a default-bound read would run.
func showRouting(leader dash.Handle, caption string, expectProxy bool) {
	router := leader.(*dash.ServingEngine)
	deadline := time.Now().Add(10 * time.Second)
	for {
		target, proxy := router.RouteSearch(dash.Request{})
		if proxy == expectProxy || time.Now().After(deadline) {
			if proxy {
				fmt.Printf("routing: %s -> replica %s\n", caption, target)
			} else {
				fmt.Printf("routing: %s -> served locally by the leader\n", caption)
			}
			stats := leader.Stats().Replicas
			fmt.Printf("  fleet: ")
			for _, rs := range stats.Replicas {
				fmt.Printf("[%s healthy=%v applied=%d] ", rs.URL, rs.Healthy, rs.MinApplied)
			}
			fmt.Printf("(routed=%d fallback=%d)\n", stats.Routed, stats.Fallback)
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
}
