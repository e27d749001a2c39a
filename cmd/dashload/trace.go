package main

// trace.go is the traced run: a separate in-process pass over the same
// generated inputs that records a span around every call into a layer's
// public function. Nothing outside cmd/dashload is instrumented — the
// driver composes the layers the way the serving path does and times each
// call from outside — and no trace number is ever mixed into an
// end-to-end metric.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	dash "repro"
	"repro/internal/crawl"
	"repro/internal/durable"
	"repro/internal/fragindex"
	"repro/internal/replic"
	"repro/internal/search"
)

// Fixed operation counts of the traced passes: sized so one pass takes a
// few seconds on the sandbox, and fixed so exact counters repeat.
const (
	traceUncachedQueries = 3000
	traceZipfDraws       = 20000
	traceApplyBatches    = 400
	traceReplicated      = 300
	traceTailReads       = 200
	traceRouterPicks     = 2000
	traceCacheBytes      = 32 << 20 // dashserve's default -cache-bytes
)

// span is one timed call. Parent is the ID of the span that caused it (0
// for an operation's root); spans of one operation share Op.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// op opens a new operation and returns its identifier.
func (t *tracer) op() int {
	t.ops++
	return t.ops
}

// start opens a span and returns its ID.
func (t *tracer) start(name string, parent, op int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name})
	s := &t.spans[len(t.spans)-1]
	s.StartNS = int64(time.Since(t.t0))
	return s.ID
}

func (t *tracer) end(id int) { t.spans[id-1].EndNS = int64(time.Since(t.t0)) }

// dur is an ended span's wall time in ns.
func (t *tracer) dur(id int) float64 { return float64(t.spans[id-1].EndNS - t.spans[id-1].StartNS) }

// root is start for an operation's first span.
func (t *tracer) root(name string) (id, op int) {
	op = t.op()
	return t.start(name, 0, op), op
}

// durations returns the wall time in ns of every span with the name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for i := range t.spans {
		if s := &t.spans[i]; s.Name == name {
			out = append(out, float64(s.EndNS-s.StartNS))
		}
	}
	return out
}

// selfTimes returns, per span name, the summed self time in ns: each
// span's duration minus the part its child spans cover (children of one
// span never overlap here — the driver calls the layers one at a time).
func selfTimes(spans []span) map[string]float64 {
	children := make(map[int]int64, len(spans))
	for i := range spans {
		if s := &spans[i]; s.Parent != 0 {
			children[s.Parent] += s.EndNS - s.StartNS
		}
	}
	out := make(map[string]float64)
	for i := range spans {
		s := &spans[i]
		out[s.Name] += float64(s.EndNS - s.StartNS - children[s.ID])
	}
	return out
}

// checkNesting verifies the invariants a consumer of the spans file
// relies on: every child span lies inside its parent and shares its
// operation.
func checkNesting(spans []span) error {
	for i := range spans {
		s := &spans[i]
		if s.EndNS < s.StartNS {
			return fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		if s.Parent < 1 || s.Parent > len(spans) {
			return fmt.Errorf("span %d (%s) names unknown parent %d", s.ID, s.Name, s.Parent)
		}
		p := &spans[s.Parent-1]
		if s.Op != p.Op {
			return fmt.Errorf("span %d (%s) has op %d, its parent %d (%s) op %d", s.ID, s.Name, s.Op, p.ID, p.Name, p.Op)
		}
		if s.StartNS < p.StartNS || s.EndNS > p.EndNS {
			return fmt.Errorf("span %d (%s) [%d,%d] is not inside its parent %d (%s) [%d,%d]",
				s.ID, s.Name, s.StartNS, s.EndNS, p.ID, p.Name, p.StartNS, p.EndNS)
		}
	}
	return nil
}

// write stores the spans as JSON lines in dir.
func (t *tracer) write(dir, workload string) (path string, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path = filepath.Join(dir, "spans-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			closeLogged(f, path)
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		closeLogged(f, path)
		return "", err
	}
	return path, f.Close()
}

// spanMetric derives one per-layer metric from the spans of one name.
type spanMetric struct {
	metric, span string
	stat         func([]float64) float64
	perNS        float64 // ns per reported unit
}

func p50(xs []float64) float64 { return percentile(xs, 0.50) }
func p99(xs []float64) float64 { return percentile(xs, 0.99) }

var spanMetrics = []spanMetric{
	{"search.engine_mean_us", "search.engine", mean, 1e3},
	{"search.engine_p50_us", "search.engine", p50, 1e3},
	{"search.engine_p99_us", "search.engine", p99, 1e3},
	{"search.sharded_mean_us", "search.sharded", mean, 1e3},
	{"search.cachekey_p50_ns", "search.cachekey", p50, 1},
	{"search.cache_get_p50_ns", "search.cache_get", p50, 1},
	{"search.cache_put_p50_ns", "search.cache_put", p50, 1},
	{"dash.search_miss_p50_us", "dash.search_miss", p50, 1e3},
	{"dash.search_hit_p50_us", "dash.search_hit", p50, 1e3},
	{"dash.open_s", "dash.open", mean, 1e9},
	{"crawl.recrawl_fragment_p50_us", "crawl.recrawl_fragment", p50, 1e3},
	{"fragindex.apply_p50_us", "fragindex.apply", p50, 1e3},
	{"fragindex.sharded_apply_p50_us", "fragindex.sharded_apply", p50, 1e3},
	{"fragindex.apply_replicated_p50_us", "fragindex.apply_replicated", p50, 1e3},
	{"fragindex.compact_ms", "fragindex.compact", mean, 1e6},
	{"fragindex.dump_ms", "fragindex.dump", mean, 1e6},
	{"durable.append_p50_us", "durable.append", p50, 1e3},
	{"durable.append_nosync_p50_us", "durable.append_nosync", p50, 1e3},
	{"durable.checkpoint_ms", "durable.checkpoint", mean, 1e6},
	{"durable.journal_replay_ms", "durable.recover", mean, 1e6},
	{"durable.tailfrom_p50_us", "durable.tailfrom", p50, 1e3},
	{"replic.bootstrap_s", "replic.bootstrap", mean, 1e9},
	{"replic.visible_lag_p50_ms", "replic.visible_lag", p50, 1e6},
	{"replic.router_pick_ns", "replic.router_pick", p50, 1},
}

// runTrace runs the workload's traced pass, writes the spans file and
// fills the trace metrics.
func runTrace(ctx context.Context, cfg runConfig, ref *reference, res *runResult) error {
	t := newTracer()
	dir := filepath.Join(cfg.tmpDir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var err error
	switch res.workload {
	case "search_uncached":
		stream := newDistinctStream(ref.corpus, cfg.seed)
		queries := make([]string, traceUncachedQueries)
		for i := range queries {
			queries[i] = stream.next()
		}
		err = traceSearch(ctx, t, ref, res, queries, true)
	case "search_zipf_hot":
		pool := queryPool(ref.corpus, poolSeed, zipfPool)
		draws := newZipfDraws(subSeed(cfg.seed, 1), zipfS, zipfPool)
		queries := make([]string, traceZipfDraws)
		for i := range queries {
			queries[i] = pool[draws.next()]
		}
		err = traceSearch(ctx, t, ref, res, queries, false)
	case "write_durable":
		err = traceWrite(ctx, t, ref, res, cfg.seed, dir)
	case "replica_ryw":
		err = traceReplica(ctx, t, ref, res, cfg.seed, dir)
	}
	if err != nil {
		return err
	}
	if err := checkNesting(t.spans); err != nil {
		return err
	}
	for _, m := range spanMetrics {
		ds := t.durations(m.span)
		if len(ds) == 0 {
			continue
		}
		res.layer.set(m.metric, m.stat(ds)/m.perNS, len(ds))
	}
	// The share of the composed operations' time spent in the driver's
	// own glue between layer calls: what tracing from outside costs.
	rootName := res.workload + ".op"
	if roots := t.durations(rootName); len(roots) > 0 {
		total := mean(roots) * float64(len(roots))
		res.layer.set("trace.self_time_share", selfTimes(t.spans)[rootName]/total, len(roots))
	}
	out := cfg.spans
	if out == "" {
		if out, err = os.MkdirTemp("", "dashload-spans-"); err != nil {
			return err
		}
	}
	path, err := t.write(out, res.workload)
	if err != nil {
		return err
	}
	res.spansPath = path
	return nil
}

// traceSearch composes the cached read path the way the facade does —
// canonical key, cache lookup, engine on a pinned snapshot, cache fill —
// with a span per layer call, then runs the same queries through the
// facade handle and, for the uncached stream, the 2-shard engine.
func traceSearch(ctx context.Context, t *tracer, ref *reference, res *runResult, queries []string, sharded bool) error {
	idx, err := ref.rebuildIndex()
	if err != nil {
		return err
	}
	live := fragindex.NewLive(idx)
	eng := search.New(live, ref.app)
	snap := live.Snapshot()
	snaps := []*fragindex.Snapshot{snap}
	cache := search.NewResultCache(traceCacheBytes)
	var pins []search.EpochPin
	var postings, results int
	engineRuns := 0
	for _, q := range queries {
		root, op := t.root(res.workload + ".op")
		s := t.start("search.cachekey", root, op)
		req := search.NormalizeRequest(searchRequest(q))
		pins = search.PinEpochs(pins[:0], snaps, req.Keywords)
		key := search.CacheKey(req, pins)
		t.end(s)
		s = t.start("search.cache_get", root, op)
		_, hit := cache.Get(key)
		t.end(s)
		if !hit {
			s = t.start("search.engine", root, op)
			out, err := eng.SearchSnapshot(ctx, snap, req)
			t.end(s)
			if err != nil {
				return fmt.Errorf("query %q: %w", q, err)
			}
			s = t.start("search.cache_put", root, op)
			cache.Put(key, append([]search.EpochPin(nil), pins...), out)
			t.end(s)
			engineRuns++
			results += len(out)
			for _, kw := range req.Keywords {
				postings += snap.DF(kw)
			}
		}
		t.end(root)
	}
	if engineRuns > 0 {
		res.layer.set("fragindex.postings_per_query", float64(postings)/float64(engineRuns), engineRuns)
		res.layer.set("search.results_per_query", float64(results)/float64(engineRuns), engineRuns)
	}
	if results > 0 {
		res.layer.set("search.postings_per_result", float64(postings)/float64(results), results)
	}

	// The facade: the same queries through dash.Open's cached handle.
	if idx, err = ref.rebuildIndex(); err != nil {
		return err
	}
	s, _ := t.root("dash.open")
	h, err := dash.Open(ctx, idx, ref.app, dash.WithResultCache(traceCacheBytes))
	t.end(s)
	if err != nil {
		return err
	}
	cs, ok := h.(dash.CachedSearcher)
	if !ok {
		return fmt.Errorf("handle %T opened with a result cache is not a CachedSearcher", h)
	}
	for _, q := range queries {
		// The outcome is only known afterwards, so the span is named then.
		s, _ := t.root("dash.search_miss")
		_, status, err := cs.SearchStatus(ctx, searchRequest(q))
		t.end(s)
		if err != nil {
			return fmt.Errorf("query %q: %w", q, err)
		}
		if status == dash.CacheHit {
			t.spans[s-1].Name = "dash.search_hit"
		}
	}

	if !sharded {
		return nil
	}
	if idx, err = ref.rebuildIndex(); err != nil {
		return err
	}
	sl, err := fragindex.NewShardedLive(idx, writeShards)
	if err != nil {
		return err
	}
	se := search.NewSharded(sl, ref.app)
	pinned := se.Pin()
	for _, q := range queries {
		s, _ := t.root("search.sharded")
		_, err := se.SearchPinned(ctx, pinned, searchRequest(q))
		t.end(s)
		if err != nil {
			return fmt.Errorf("query %q: %w", q, err)
		}
	}
	return nil
}

// openStore opens a fresh single-shard durable store seeded from live.
func openStore(ctx context.Context, dir string, mode durable.SyncMode, live *fragindex.LiveIndex) (*durable.Store, error) {
	st, err := durable.Open(ctx, dir, durable.SyncPolicy{Mode: mode})
	if err != nil {
		return nil, err
	}
	if err := st.Init(ctx, []*fragindex.Dump{live.Dump()}); err != nil {
		closeLogged(st, dir)
		return nil, err
	}
	return st, nil
}

// traceWrite composes the write path — (re)derive, coalesce, copy-on-write
// apply, journal append with and without fsync — with a span per layer
// call, then times the maintenance calls around it: the sharded apply,
// compaction, dump, checkpoint, tail reads and recovery.
func traceWrite(ctx context.Context, t *tracer, ref *reference, res *runResult, seed int64, dir string) error {
	idx, err := ref.rebuildIndex()
	if err != nil {
		return err
	}
	live := fragindex.NewLive(idx)
	if idx, err = ref.rebuildIndex(); err != nil {
		return err
	}
	sl, err := fragindex.NewShardedLive(idx, writeShards)
	if err != nil {
		return err
	}
	syncDir := filepath.Join(dir, "journal-always")
	stSync, err := openStore(ctx, syncDir, durable.SyncAlways, live)
	if err != nil {
		return err
	}
	// stSync is closed half-way, to recover from what it wrote.
	syncOpen := true
	defer func() {
		if syncOpen {
			closeLogged(stSync, syncDir)
		}
	}()
	stLazy, err := openStore(ctx, filepath.Join(dir, "journal-interval"), durable.SyncInterval, live)
	if err != nil {
		return err
	}
	defer closeLogged(stLazy, "interval-sync journal")

	gen := newDeltaGen(ref.corpus, seed, writeBatch, recrawlEvery, recrawlIDs)
	var changes int
	var coalesceNS, applyNS float64
	var epochs []uint64
	for i := 0; i < traceApplyBatches; i++ {
		req := gen.next()
		root, op := t.root("write_durable.op")
		d := req.delta
		if len(req.recrawl) > 0 {
			for _, id := range req.recrawl {
				s := t.start("crawl.recrawl_fragment", root, op)
				_, _, _, err := crawl.RecrawlFragment(ref.db, ref.bound, id)
				t.end(s)
				if err != nil {
					return err
				}
			}
			s := t.start("crawl.derive_delta", root, op)
			d, err = crawl.DeriveDelta(ctx, ref.db, ref.bound, req.recrawl, live.Snapshot().Has)
			t.end(s)
			if err != nil {
				return err
			}
		}
		s := t.start("crawl.coalesce", root, op)
		folded, err := crawl.Coalesce([]crawl.Delta{d})
		t.end(s)
		if err != nil {
			return err
		}
		coalesceNS += t.dur(s)
		s = t.start("fragindex.apply", root, op)
		st, err := live.ApplyBatch(ctx, []crawl.Delta{d})
		t.end(s)
		if err != nil {
			return err
		}
		applyNS += t.dur(s)
		s = t.start("durable.append", root, op)
		err = stSync.Append(ctx, 0, folded, st.Epoch)
		t.end(s)
		if err != nil {
			return err
		}
		s = t.start("durable.append_nosync", root, op)
		err = stLazy.Append(ctx, 0, folded, st.Epoch)
		t.end(s)
		if err != nil {
			return err
		}
		t.end(root)
		changes += len(folded.Changes)
		epochs = append(epochs, st.Epoch)

		s, _ = t.root("fragindex.sharded_apply")
		_, err = sl.ApplyBatch(ctx, []crawl.Delta{d})
		t.end(s)
		if err != nil {
			return err
		}
	}
	if changes > 0 {
		res.layer.set("crawl.coalesce_us_per_change", coalesceNS/1e3/float64(changes), changes)
		res.layer.set("fragindex.apply_us_per_change", applyNS/1e3/float64(changes), changes)
		res.layer.set("durable.journal_bytes_per_change", float64(stSync.Stats().JournalBytes)/float64(changes), changes)
	}
	for i := 0; i < traceTailReads && i < len(epochs); i++ {
		s, _ := t.root("durable.tailfrom")
		_, err := stSync.TailFrom(ctx, 0, epochs[len(epochs)-1-i]-1, 64<<10)
		t.end(s)
		if err != nil {
			return err
		}
	}
	// Recovery replays the journal written above: close the store and
	// reopen it the way a restarted server does.
	syncOpen = false
	if err := stSync.Close(); err != nil {
		return err
	}
	reopened, err := durable.Open(ctx, syncDir, durable.SyncPolicy{Mode: durable.SyncAlways})
	if err != nil {
		return err
	}
	defer closeLogged(reopened, syncDir)
	s, _ := t.root("durable.recover")
	_, _, err = reopened.Recover(ctx)
	t.end(s)
	if err != nil {
		return err
	}
	// Snapshot GC and checkpoint as dashserve's -gc-interval loop runs
	// them. The compaction advances the epoch without a journal record,
	// so the checkpoint is a real snapshot generation, not a no-op.
	s, _ = t.root("fragindex.compact")
	_, err = live.CompactIfNeeded(ctx, 0)
	t.end(s)
	if err != nil {
		return err
	}
	s, _ = t.root("fragindex.dump")
	dump := live.Dump()
	t.end(s)
	s, _ = t.root("durable.checkpoint")
	err = reopened.Checkpoint(ctx, 0, dump)
	t.end(s)
	if err != nil {
		return err
	}

	// dash.Open as write_durable's server runs it: seeding a fresh data
	// dir is part of the open.
	if idx, err = ref.rebuildIndex(); err != nil {
		return err
	}
	s, _ = t.root("dash.open")
	h, err := dash.Open(ctx, idx, ref.app, dash.WithShards(writeShards),
		dash.WithDataDir(filepath.Join(dir, "facade")), dash.WithResultCache(traceCacheBytes))
	t.end(s)
	if err != nil {
		return err
	}
	return closeHandle(h)
}

// closeHandle closes a durable facade handle.
func closeHandle(h dash.Handle) error {
	if c, ok := h.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// traceReplica runs a durable leader behind an httptest server and a
// journal-tailing replica in this process: how long a leader apply takes
// to become visible on the replica, what a replicated apply and a router
// pick cost.
func traceReplica(ctx context.Context, t *tracer, ref *reference, res *runResult, seed int64, dir string) error {
	idx, err := ref.rebuildIndex()
	if err != nil {
		return err
	}
	s, _ := t.root("dash.open")
	leader, err := dash.Open(ctx, idx, ref.app, dash.WithDataDir(filepath.Join(dir, "leader")))
	t.end(s)
	if err != nil {
		return err
	}
	defer func() {
		if err := closeHandle(leader); err != nil {
			fmt.Fprintln(os.Stderr, "dashload: close traced leader:", err)
		}
	}()
	rep, ok := leader.(dash.Replicable)
	if !ok {
		return fmt.Errorf("durable handle %T is not Replicable", leader)
	}
	mux := http.NewServeMux()
	mux.Handle(dash.ReplicationPrefix+"/", http.StripPrefix(dash.ReplicationPrefix, rep.ReplicationHandler()))
	srv := httptest.NewServer(mux)
	defer srv.Close()

	s, _ = t.root("replic.bootstrap")
	replica, err := replic.Bootstrap(ctx, srv.URL, replic.Options{})
	t.end(s)
	if err != nil {
		return err
	}
	defer closeLogged(replica, "traced replica")

	// A second copy of the index takes the same deltas through
	// ApplyReplicated, so the replicated apply is timed without the
	// network around it.
	if idx, err = ref.rebuildIndex(); err != nil {
		return err
	}
	mirror := fragindex.NewLive(idx)

	gen := newDeltaGen(ref.corpus, seed, rywBatch, 0, 0)
	for i := 0; i < traceReplicated; i++ {
		d := gen.next().delta
		root, op := t.root("replica_ryw.op")
		s := t.start("dash.apply", root, op)
		rp, err := leader.Apply(ctx, d)
		t.end(s)
		if err != nil {
			return err
		}
		epoch := rp.Total.Epoch
		s = t.start("replic.visible_lag", root, op)
		for deadline := time.Now().Add(10 * time.Second); replica.AppliedEpoch(0) < epoch; {
			if time.Now().After(deadline) {
				return fmt.Errorf("epoch %d never reached the traced replica", epoch)
			}
			runtime.Gosched()
		}
		t.end(s)
		t.end(root)

		s, _ = t.root("fragindex.apply_replicated")
		_, err = mirror.ApplyReplicated(ctx, d, epoch)
		t.end(s)
		if err != nil {
			return err
		}
	}

	// The leader-side read router over one replica readiness endpoint.
	ready := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(map[string]any{"status": "ready", "replication": replica.Stats()}); err != nil {
			fmt.Fprintln(os.Stderr, "dashload: encode readyz:", err)
		}
	}))
	defer ready.Close()
	router := replic.NewRouter([]string{ready.URL}, replic.RouterOptions{Poll: 20 * time.Millisecond})
	defer router.Stop()
	for deadline := time.Now().Add(5 * time.Second); ; {
		if _, ok := router.Pick(1); ok {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("router never saw the traced replica ready")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < traceRouterPicks; i++ {
		s, _ := t.root("replic.router_pick")
		router.Pick(1)
		t.end(s)
	}
	return nil
}
