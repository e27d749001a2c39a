// Command dashserve hosts the full Dash demo in one process: the target web
// application serving db-pages, and the Dash search API suggesting db-page
// URLs for keyword queries.
//
//	dashserve -addr :8080 -dataset fooddb -shards 4
//
// Then:
//
//	curl 'http://localhost:8080/app?c=American&l=10&u=15'      # a db-page
//	curl 'http://localhost:8080/v1/search?q=burger&k=2&s=20'   # Dash results
//	curl 'http://localhost:8080/v1/search:batch?q=burger&q=coffee'
//	curl 'http://localhost:8080/v1/admin/stats'                # serving index stats
//	curl -d '{"recrawl":[["American","9"]]}' http://localhost:8080/v1/admin/apply
//	curl -d '{"batch":[{"changes":[...]},{"recrawl":[...]}]}' \
//	     http://localhost:8080/v1/admin/apply                  # one publish
//	open 'http://localhost:8080/?q=burger'                     # human demo page
//
// # The /v1 JSON API
//
// Every /v1 endpoint speaks JSON and maps failures to a structured error
// envelope {"error":{"code","message"}}: 400 invalid_argument for
// malformed syntax (bad numeric parameters, unparseable JSON), 422
// validation_failed for well-formed requests the engine rejects (no
// keywords, unknown delta op, a change that cannot apply), 499
// client_closed_request when the caller goes away mid-request, 504
// deadline_exceeded when the per-request budget runs out, 503 overloaded
// (with Retry-After) when admission control sheds a search the engine
// cannot serve inside its deadline, and 429 too_many_requests (with
// Retry-After) when one client exceeds its -per-client-inflight cap.
// Searches are
// cancellable end to end: the handler context carries a deadline —
// -search-timeout is the server ceiling, ?timeout_ms= may shrink a
// request's budget below it (never raise it) — and
// the engine stops cooperatively when it fires, so a runaway hot-keyword
// query cannot hold the connection past its budget.
//
// The pre-/v1 routes (/search, /batch, /admin/stats, /admin/apply) are
// gone: like any unknown path they answer the structured 404 not_found.
//
// # Serving under load
//
// -cache-bytes (default 32 MiB) puts an epoch-keyed result cache in front
// of the engine, on leaders and -replica-of processes alike: hot queries
// are answered without re-running the search, responses are byte-identical
// to uncached ones (the cache key pins the exact snapshot epochs), and a
// publish — local or replicated — invalidates only the entries it
// supersedes. Search responses carry X-Cache: hit|miss|bypass, the
// access log records it, and /v1/admin/stats grows a "cache" block.
// -max-inflight adds deadline-aware admission control (searches that
// cannot finish inside their remaining budget, or beyond the cap, shed
// fast with 503), and -per-client-inflight caps each client's concurrent
// searches in the middleware (429). See ARCHITECTURE.md "Serving under
// load".
//
// Every request passes one middleware: an X-Request-ID response header, an
// access-log line, and panic-to-500 recovery — a panicking handler answers
// a structured 500 instead of killing the connection silently. Access
// lines are buffered (written out every 100 ms, when the buffer fills, at
// shutdown, and ahead of any other log line, so the log file stays in
// order and errors are never held back).
//
// Every request pins immutable snapshots (one atomic load per shard), so
// searches never block on or get torn by index maintenance. /v1/admin/apply
// folds changes into the next snapshot — explicit fragment changes and/or a
// targeted re-crawl of the named partitions — and publishes atomically; its
// batch mode coalesces a list of deltas into a single publish. A background
// goroutine periodically garbage-collects tombstoned refs by publishing a
// compacted snapshot once enough removals accumulate.
//
// The index is served through dash.Open (dash.OpenReplica with
// -replica-of) — one serving engine whichever shape the flags pick, so the
// handlers never name a topology: -shards N partitions the index (default
// 1, the single live index), and /v1/admin/stats reports whichever shape
// and layers are serving.
//
// # Durable serving
//
// -data-dir makes serving crash-safe: every published delta is journaled
// to a per-shard write-ahead log before the snapshot swap acknowledges it,
// and each shard's state is checkpointed as a versioned, checksummed
// snapshot generation. On a fresh directory the index is built from
// -dataset and seeded to disk; on an initialized directory the crawl is
// skipped entirely and serving resumes from the recovered state — exactly
// the last acknowledged publish, surviving kill -9. -sync picks the
// journal discipline ("always" fsyncs inside every publish, the default;
// "interval" batches fsyncs every -sync-interval), /v1/admin/apply's
// "mode":"queue"/"flush" defers publishes into one journaled batch, and
// /v1/admin/stats grows a "durability" block (journal, checkpoint, and
// recovery counters) when -data-dir is set.
//
// # Degraded serving & health
//
// With -data-dir the server rides out disk faults instead of crashing:
// transient journal/checkpoint failures retry with capped exponential
// backoff (-durability-retries), and after -durability-failure-threshold
// consecutive failures the server degrades — searches keep serving from
// published snapshots, while /v1/admin/apply answers 503 with code
// "durability_degraded" and a Retry-After derived from the background
// prober's next disk re-test (-durability-probe-interval, backing off).
// A successful probe triggers automatic recovery: the poisoned journal is
// sealed at the last acknowledged record, a fresh checkpoint re-baselines
// every shard, and writes resume without a restart.
//
// Two probe endpoints expose this: /v1/healthz is pure liveness (200
// whenever the process answers HTTP — degradation does not fail it), and
// /v1/readyz is readiness (200 "ready" normally; 200 "degraded" while
// durability is lost, since reads still serve; 503 "shutting_down" once
// the drain starts). The access log carries durability=healthy|degraded
// per request and /v1/admin/stats' "durability" block reports the state
// machine's counters (retries, degradations, probes, recoveries).
//
// -pprof opts into net/http/pprof under /debug/pprof/ for profiling the
// serving path; it is off by default so the profiling surface is never
// exposed unintentionally.
//
// The server shuts down gracefully on SIGINT/SIGTERM: readiness flips to
// shutting-down first, then in-flight searches drain before the process
// exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	dash "repro"
	"repro/internal/crawl"
	"repro/internal/harness"
	"repro/internal/relation"
	"repro/internal/tpch"
	"repro/internal/webapp"
)

func main() {
	if err := run(os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "dashserve:", err)
		os.Exit(1)
	}
}

// gcDeadRatio is the share of tombstoned refs at which the snapshot GC
// tick compacts a shard.
const gcDeadRatio = 0.25

// run serves until SIGINT/SIGTERM. Everything logged — the standard
// logger's lines and the access log — goes to stderr through one sink,
// flushed before run returns.
func run(args []string, stderr io.Writer) error {
	sink := newLogSink(stderr)
	log.SetOutput(sink)
	defer sink.Flush()

	fs := flag.NewFlagSet("dashserve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	dataset := fs.String("dataset", "fooddb", "fooddb | small | medium | large")
	query := fs.String("query", "Q2", "application query for TPC-H datasets")
	seed := fs.Int64("seed", 42, "dataset generator seed")
	gcInterval := fs.Duration("gc-interval", 30*time.Second, "snapshot GC period (0 disables)")
	shards := fs.Int("shards", 1, "serving index shard count (partitioned by equality-group key)")
	searchTimeout := fs.Duration("search-timeout", 10*time.Second,
		"per-request search budget (0 disables; ?timeout_ms= may shrink it per request, never raise it)")
	pprofFlag := fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (opt-in profiling)")
	dataDir := fs.String("data-dir", "",
		"durable data directory: publishes journal to disk before acknowledging and restarts recover the last acknowledged state (empty: in-memory only)")
	syncMode := fs.String("sync", "always", "journal sync policy with -data-dir: always | interval")
	syncEvery := fs.Duration("sync-interval", 100*time.Millisecond,
		"background journal fsync period for -sync interval")
	cacheBytes := fs.Int64("cache-bytes", 32<<20,
		"epoch-keyed result cache byte budget (0 disables; responses carry X-Cache: hit|miss|bypass)")
	maxInflight := fs.Int("max-inflight", 0,
		"process-wide concurrent search cap with deadline-aware shedding: excess or doomed searches answer 503 + Retry-After (0 disables)")
	perClient := fs.Int("per-client-inflight", 0,
		"concurrent search cap per client (X-Client-ID header, else remote host): excess answers 429 + Retry-After (0 disables)")
	durRetries := fs.Int("durability-retries", 2,
		"retries per failed durable append/checkpoint with -data-dir (capped exponential backoff; negative disables)")
	durThreshold := fs.Int("durability-failure-threshold", 2,
		"consecutive post-retry durable failures before the server degrades (reads keep serving, writes answer 503 durability_degraded)")
	durProbe := fs.Duration("durability-probe-interval", 500*time.Millisecond,
		"first degraded-mode disk re-probe delay; failed probes back off exponentially")
	replicaOf := fs.String("replica-of", "",
		"leader base URL: serve as a journal-tailing read replica — bootstrap from the leader's newest snapshots, tail its journal, refuse writes (incompatible with -data-dir)")
	replicas := fs.String("replicas", "",
		"comma-separated replica base URLs for leader-side bounded-staleness read routing (requires -data-dir)")
	stalenessEpochs := fs.Int("staleness-epochs", dash.DefaultStalenessBound,
		"bounded-staleness contract: max epochs a replica may lag and still serve reads with no explicit min_epoch (negative: unbounded)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	shardsSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "shards" {
			shardsSet = true
		}
	})

	db, app, err := setup(*dataset, *query, *seed)
	if err != nil {
		return err
	}
	bound, err := app.Bound()
	if err != nil {
		return err
	}

	// The handlers only ever see the serving contract; shape and layers
	// are construction-time concerns. A replica takes the same serving
	// options as a leader.
	opts := []dash.Option{dash.WithStalenessBound(*stalenessEpochs)}
	if *cacheBytes > 0 {
		opts = append(opts, dash.WithResultCache(*cacheBytes))
	}
	if *maxInflight > 0 {
		opts = append(opts, dash.WithAdmissionControl(dash.AdmissionOptions{MaxInFlight: *maxInflight}))
	}
	var engine dash.Handle
	if *replicaOf != "" {
		// Replica mode: no crawl, no local durability — the serving state
		// is a mirror of the leader's, bootstrapped from its newest
		// snapshots and kept current by tailing its journal. The same
		// -dataset/-query/-seed must be given as the leader's so URL
		// formulation agrees.
		if *dataDir != "" {
			return fmt.Errorf("-replica-of is incompatible with -data-dir: a replica mirrors the leader's durable state instead of keeping its own")
		}
		if *replicas != "" {
			return fmt.Errorf("-replicas is a leader-side flag; a -replica-of process routes unsatisfiable reads back to its leader already")
		}
		log.Printf("bootstrapping replica of %s…", *replicaOf)
		engine, err = dash.OpenReplica(context.Background(), *replicaOf, app, append(opts, dash.WithReplicaLog(log.Printf))...)
		if err != nil {
			return err
		}
	} else {
		// With -data-dir an initialized directory recovers the persisted
		// index — no crawl at all, and its committed shard count pins the
		// topology unless -shards explicitly disagrees (which is an error,
		// not a silent repartition).
		recovering := *dataDir != "" && dash.IsInitialized(*dataDir)
		if !recovering || shardsSet {
			opts = append(opts, dash.WithShards(*shards))
		}
		if *dataDir != "" {
			opts = append(opts,
				dash.WithDataDir(*dataDir),
				dash.WithSyncPolicy(dash.SyncPolicy{Mode: dash.SyncMode(*syncMode), Interval: *syncEvery}),
				dash.WithDurabilityRetry(dash.DurabilityRetryPolicy{
					MaxRetries:       *durRetries,
					FailureThreshold: *durThreshold,
					ProbeInterval:    *durProbe,
				}))
		}
		if *replicas != "" {
			opts = append(opts, dash.WithReplicas(strings.Split(*replicas, ",")...))
		}
		var idx *dash.Index
		if recovering {
			log.Printf("recovering index from %s…", *dataDir)
		} else {
			log.Printf("crawling %s…", db.Name)
			out, _, err := harness.RunCrawl(context.Background(), db, app,
				crawl.AlgIntegrated, crawl.Options{}, *dataset)
			if err != nil {
				return err
			}
			idx, _, err = harness.BuildGraph(out, bound, app.Name)
			if err != nil {
				return err
			}
		}
		engine, err = dash.Open(context.Background(), idx, app, opts...)
		if err != nil {
			return err
		}
	}
	st := engine.Stats()
	log.Printf("index ready: %d fragments, topology %s over %d shard(s)",
		st.Fragments, st.Topology, st.Shards)
	if ds := st.Durability; ds != nil {
		if ds.Recovered {
			for _, ri := range ds.Recovery {
				log.Printf("recovery: shard %d at epoch %d (snapshot %d, %d journal records replayed, fallback=%v, truncated_tail=%v)",
					ri.Shard, ri.FinalEpoch, ri.SnapshotEpoch, ri.ReplayedRecords, ri.Fallback, ri.TruncatedTail)
			}
		} else {
			log.Printf("durability: seeded fresh data dir %s (%d shard(s), sync=%s)",
				ds.Dir, ds.Shards, ds.SyncMode)
		}
	}

	handler, srv := newMux(engine, app, db, bound.SelAttrKinds(), serveConfig{
		withPprof:         *pprofFlag,
		searchTimeout:     *searchTimeout,
		perClientInFlight: *perClient,
		accessLog:         sink,
	})
	// Closing a durable engine flushes unsynced journal appends; an error
	// here means acknowledged applies may not have reached disk.
	defer func() {
		if err := srv.eng.Close(); err != nil {
			log.Printf("engine close: %v", err)
		}
	}()

	server := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Snapshot GC: removals leave tombstoned refs in every later version;
	// once their share reaches gcDeadRatio, publish a compacted snapshot.
	// A durable engine also checkpoints every shard whose state moved. Each
	// tick that compacted or checkpointed anything logs what it did and how
	// long it took. Replicas never compact locally: a local GC would
	// advance epochs outside the leader's sequence — they inherit
	// compaction through re-bootstrap instead.
	if *gcInterval > 0 && *replicaOf == "" {
		go func() {
			ticker := time.NewTicker(*gcInterval)
			defer ticker.Stop()
			checkpoints := func(st dash.EngineStats) uint64 {
				if st.Durability == nil {
					return 0
				}
				return st.Durability.Checkpoints
			}
			for {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
					start, before := time.Now(), checkpoints(engine.Stats())
					ran, err := engine.CompactIfNeeded(ctx, gcDeadRatio)
					took := time.Since(start).Round(time.Microsecond)
					if err != nil {
						log.Printf("snapshot gc: %v (after %v)", err, took)
						continue
					}
					st := engine.Stats()
					if ckpts := checkpoints(st) - before; ran > 0 || ckpts > 0 {
						log.Printf("snapshot gc: %d shard(s) compacted, %d checkpointed, %d fragments (max epoch %d) in %v",
							ran, ckpts, st.Fragments, st.MaxEpoch, took)
					}
				}
			}
		}()
	}

	errc := make(chan error, 1)
	go func() {
		log.Printf("serving on %s (web app at /app, JSON API under /v1, demo page at /?q=…)", *addr)
		errc <- server.ListenAndServe()
	}()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	log.Printf("shutting down, draining in-flight requests…")
	// Flip readiness first so balancers stop routing new traffic while the
	// in-flight requests drain (liveness stays green throughout).
	srv.markDraining()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := server.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	return nil
}

func setup(dataset, query string, seed int64) (*relation.Database, *webapp.Application, error) {
	if dataset == "fooddb" {
		return harness.Fooddb()
	}
	scale, err := tpch.ScaleByName(dataset)
	if err != nil {
		return nil, nil, err
	}
	return harness.Workload{Scale: scale, Seed: seed, Query: query}.Setup()
}
