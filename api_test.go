package dash

// Contract tests for the context-first public API: the capability table
// (what every method answers on every handle shape), Open's topology
// selection and option validation, and the cross-topology equivalence
// the contract promises.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/fooddb"
	"repro/internal/relation"
)

// fooddbIndex builds one fresh fooddb index (each serving engine takes
// ownership of its index, so equivalence tests build one per topology).
func fooddbIndex(t *testing.T) (*Database, *Application, func() *Index) {
	t.Helper()
	db := fooddb.New()
	app, err := Analyze(fooddb.ServletSource, fooddb.BaseURL)
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Bind(db); err != nil {
		t.Fatal(err)
	}
	return db, app, func() *Index {
		idx, _, err := Build(context.Background(), db, app, BuildOptions{Algorithm: AlgReference})
		if err != nil {
			t.Fatal(err)
		}
		return idx
	}
}

// TestOpenTopologySelection: the options pick the documented shape, which
// Stats names.
func TestOpenTopologySelection(t *testing.T) {
	_, app, build := fooddbIndex(t)
	for _, tc := range []struct {
		opts     []Option
		topology string
		shards   int
	}{
		{nil, "live", 1},
		{[]Option{WithShards(1)}, "live", 1},
		{[]Option{WithShards(4), WithPostingCompaction(1, 8)}, "sharded", 4},
		{[]Option{WithReadOnly()}, "static", 1},
	} {
		h, err := Open(context.Background(), build(), app, tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		st := h.Stats()
		perShard := 0
		if tc.shards > 1 {
			perShard = tc.shards
		}
		if st.Topology != tc.topology || st.Shards != tc.shards || len(st.PerShard) != perShard {
			t.Errorf("%d options: stats %s/%d shards/%d per-shard, want %s/%d/%d",
				len(tc.opts), st.Topology, st.Shards, len(st.PerShard), tc.topology, tc.shards, perShard)
		}
	}
}

// TestOpenOptionValidation: malformed options fail Open loudly, and
// OpenReplica rejects every option that configures the leader's shape or
// store before it contacts the leader.
func TestOpenOptionValidation(t *testing.T) {
	_, app, build := fooddbIndex(t)
	for name, opts := range map[string][]Option{
		"shards=0":                 {WithShards(0)},
		"shards=-3":                {WithShards(-3)},
		"candidate limit < 0":      {WithCandidateLimit(-1)},
		"compaction 0/4":           {WithPostingCompaction(0, 4)},
		"compaction 5/4":           {WithPostingCompaction(5, 4)},
		"readonly+sharded":         {WithReadOnly(), WithShards(3)},
		"staleness 0":              {WithStalenessBound(0)},
		"replica poll on Open":     {WithReplicaPoll(time.Second, time.Millisecond)},
		"replica log on Open":      {WithReplicaLog(t.Logf)},
		"sync policy, no dir":      {WithSyncPolicy(SyncPolicy{Mode: SyncInterval})},
		"durability retry, no dir": {WithDurabilityRetry(fastFaultRetry())},
		"durable fs, no dir":       {WithDurableFS(faultfs.OS)},
	} {
		if _, err := Open(context.Background(), build(), app, opts...); err == nil {
			t.Errorf("%s: Open accepted invalid options", name)
		}
	}
	for name, opt := range map[string]Option{
		"shards":           WithShards(2),
		"read-only":        WithReadOnly(),
		"replicas":         WithReplicas("http://127.0.0.1:1"),
		"data dir":         WithDataDir(t.TempDir()),
		"sync policy":      WithSyncPolicy(SyncPolicy{Mode: SyncInterval}),
		"durability retry": WithDurabilityRetry(fastFaultRetry()),
		"durable fs":       WithDurableFS(faultfs.OS),
	} {
		// The leader URL is never dialled: validation runs first.
		if _, err := OpenReplica(context.Background(), "http://127.0.0.1:1", app, opt); err == nil {
			t.Errorf("%s: OpenReplica accepted a leader-side option", name)
		}
	}
}

// TestOpenEquivalence is the cross-topology contract: every Open
// configuration — one shard or three, read-only, cached — returns results
// byte-identical to a plain engine over the same index on the fooddb
// corpus for a full keyword × k × s sweep.
func TestOpenEquivalence(t *testing.T) {
	_, app, build := fooddbIndex(t)

	ctx := context.Background()
	reference := NewEngine(build(), app)
	searchers := map[string]Searcher{}
	for name, opts := range map[string][]Option{
		"default":             nil,
		"WithShards(1)":       {WithShards(1)},
		"WithShards(3)":       {WithShards(3)},
		"WithReadOnly":        {WithReadOnly()},
		"WithShards(3)+cache": {WithShards(3), WithResultCache(1 << 20)},
		"WithReadOnly+cache":  {WithReadOnly(), WithResultCache(1 << 20)},
	} {
		h, err := Open(context.Background(), build(), app, opts...)
		if err != nil {
			t.Fatal(err)
		}
		searchers[name] = h
	}

	// FragRefs are internal identifiers, only meaningful within one
	// snapshot — a sharded topology numbers them per shard. Equivalence is
	// over page content: URL, scores, sizes, parameter boxes, and how many
	// fragments each page assembled.
	stripRefs := func(rs []Result) []Result {
		out := append([]Result(nil), rs...)
		for i := range out {
			out[i].Fragments = make([]FragRef, len(out[i].Fragments))
		}
		return out
	}

	keywords := append(reference.Snapshot().Keywords(), "nosuchword")
	if len(keywords) < 5 {
		t.Fatalf("fooddb vocabulary too small: %d", len(keywords))
	}
	for _, kw := range keywords {
		for _, k := range []int{1, 2, 5} {
			for _, s := range []int{1, 20, 100} {
				req := Request{Keywords: []string{kw}, K: k, SizeThreshold: s}
				rawWant, err := reference.Search(ctx, req)
				if err != nil {
					t.Fatal(err)
				}
				want := stripRefs(rawWant)
				for name, sr := range searchers {
					got, err := sr.Search(ctx, req)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if !reflect.DeepEqual(stripRefs(got), want) {
						t.Fatalf("%s diverges from NewEngine on %q k=%d s=%d:\n%+v\nvs\n%+v",
							name, kw, k, s, got, rawWant)
					}
					// The batch form answers each slot identically.
					batch := sr.SearchBatch(ctx, []Request{req, req})
					for _, br := range batch {
						if br.Err != nil || !reflect.DeepEqual(stripRefs(br.Results), want) {
							t.Fatalf("%s SearchBatch diverges on %q: %v / %+v",
								name, kw, br.Err, br.Results)
						}
					}
				}
			}
		}
	}
}

// TestOpenCandidateLimitDefault: WithCandidateLimit is exactly a default
// for Request.CandidateLimit — the handle answers what an explicit
// per-request limit answers, and an explicit request limit overrides the
// handle default.
func TestOpenCandidateLimitDefault(t *testing.T) {
	_, app, build := fooddbIndex(t)
	ctx := context.Background()
	explicit := NewEngine(build(), app)
	limited, err := Open(context.Background(), build(), app, WithCandidateLimit(1))
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Keywords: []string{"burger"}, K: 5, SizeThreshold: 20}

	want, err := explicit.Search(ctx, Request{Keywords: []string{"burger"}, K: 5, SizeThreshold: 20, CandidateLimit: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := limited.Search(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("handle default limit diverges from explicit request limit:\n%+v\nvs\n%+v", got, want)
	}

	// An explicit request-level limit wins over the handle default.
	full, err := explicit.Search(ctx, Request{Keywords: []string{"burger"}, K: 5, SizeThreshold: 20, CandidateLimit: 100})
	if err != nil {
		t.Fatal(err)
	}
	override, err := limited.Search(ctx, Request{Keywords: []string{"burger"}, K: 5, SizeThreshold: 20, CandidateLimit: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(override, full) {
		t.Errorf("request-level limit did not override the handle default")
	}

	// A negative request limit is the explicit opt-out: full posting
	// lists despite the handle default.
	unlimited, err := explicit.Search(ctx, Request{Keywords: []string{"burger"}, K: 5, SizeThreshold: 20})
	if err != nil {
		t.Fatal(err)
	}
	optOut, err := limited.Search(ctx, Request{Keywords: []string{"burger"}, K: 5, SizeThreshold: 20, CandidateLimit: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(optOut, unlimited) {
		t.Errorf("CandidateLimit=-1 did not opt out of the handle default:\n%+v\nvs\n%+v", optOut, unlimited)
	}
}

// TestHandleMaintenanceCancellation: a cancelled maintenance ctx through
// the facade publishes nothing, with one shard or several.
func TestHandleMaintenanceCancellation(t *testing.T) {
	db, app, build := fooddbIndex(t)
	for _, shards := range []int{1, 3} {
		h, err := Open(context.Background(), build(), app, WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		before := h.Stats()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		d := Delta{Changes: []FragmentChange{{
			Op: OpInsertFragment, ID: FragmentID{relation.String("Nordic"), relation.Int(3)},
			TermCounts: map[string]int64{"herring": 1}, TotalTerms: 1,
		}}}
		if _, err := h.Apply(ctx, d); !errors.Is(err, context.Canceled) {
			t.Fatalf("shards=%d: cancelled Apply err = %v", shards, err)
		}
		if _, err := h.Recrawl(ctx, db, []FragmentID{{relation.String("American"), relation.Int(10)}}); !errors.Is(err, context.Canceled) {
			t.Fatalf("shards=%d: cancelled Recrawl err = %v", shards, err)
		}
		if _, err := h.CompactIfNeeded(ctx, 0); !errors.Is(err, context.Canceled) {
			t.Fatalf("shards=%d: cancelled CompactIfNeeded err = %v", shards, err)
		}
		if after := h.Stats(); after.Publishes != before.Publishes || after.MaxEpoch != before.MaxEpoch {
			t.Errorf("shards=%d: cancelled maintenance published (%+v -> %+v)", shards, before, after)
		}
		// The same delta applies cleanly with a live ctx.
		if _, err := h.Apply(context.Background(), d); err != nil {
			t.Fatalf("shards=%d: apply after cancellation: %v", shards, err)
		}
	}
}

// The bare engine stays a Searcher; the one handle type is the full
// contract plus the interfaces callers assert on Open's result.
var (
	_ Searcher       = (*Engine)(nil)
	_ Handle         = (*ServingEngine)(nil)
	_ CachedSearcher = (*ServingEngine)(nil)
	_ Replicable     = (*ServingEngine)(nil)
	_ io.Closer      = (*ServingEngine)(nil)
)

// TestHandleCapabilityTable: over {static, live, sharded} × {cache, none} ×
// {durable, none}, plus a degraded durable handle and a cached replica,
// every method of the handle answers either a result or the typed error of
// the handle's mode — the configured layers change the answers, never the
// method set.
func TestHandleCapabilityTable(t *testing.T) {
	ctx := context.Background()
	db, app, build := fooddbIndex(t)
	type shape struct {
		name                    string
		h                       Handle
		refusal                 error // what every write answers; nil: writes publish
		cache, durable, replica bool
	}
	var shapes []shape
	for _, topo := range []string{"static", "live", "sharded"} {
		for _, cache := range []bool{false, true} {
			for _, durable := range []bool{false, true} {
				name := fmt.Sprintf("%s cache=%v durable=%v", topo, cache, durable)
				var opts []Option
				var refusal error
				switch topo {
				case "static":
					opts, refusal = append(opts, WithReadOnly()), ErrReadOnly
				case "sharded":
					opts = append(opts, WithShards(2))
				}
				if cache {
					opts = append(opts, WithResultCache(1<<20))
				}
				if durable {
					opts = append(opts, WithDataDir(t.TempDir()))
				}
				h, err := Open(ctx, build(), app, opts...)
				if topo == "static" && durable {
					if err == nil {
						t.Errorf("%s: Open accepted a durable read-only handle", name)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				shapes = append(shapes, shape{name: name, h: h, refusal: refusal, cache: cache, durable: durable})
			}
		}
	}

	// A durable handle whose disk broke: writes fail fast, typed.
	inj := faultfs.NewInjector(faultfs.OS)
	degraded, err := Open(ctx, build(), app, WithDataDir(t.TempDir()), WithDurableFS(inj), WithDurabilityRetry(fastFaultRetry()))
	if err != nil {
		t.Fatal(err)
	}
	inj.Break(nil)
	for i := 0; degraded.(*ServingEngine).DurabilityState() != DurabilityDegraded; i++ {
		if _, err := degraded.Apply(ctx, burgerDelta()); err == nil || i > 10 {
			t.Fatalf("apply #%d on a broken disk: %v", i, err)
		}
	}
	shapes = append(shapes, shape{name: "degraded", h: degraded, refusal: ErrDurabilityDegraded, durable: true})

	// A cached replica of a durable leader.
	leader, err := Open(ctx, build(), app, WithDataDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer leader.(io.Closer).Close()
	leaderURL := serveReplication(t, leader)
	rep, err := OpenReplica(ctx, leaderURL, app, WithReplicaPoll(100*time.Millisecond, 5*time.Millisecond), WithResultCache(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	shapes = append(shapes, shape{name: "replica", h: rep, refusal: ErrReplicaReadOnly, cache: true, replica: true})

	req := Request{Keywords: []string{"burger"}, K: 3, SizeThreshold: 20}
	for i, sh := range shapes {
		c := sh.h.(*ServingEngine)
		if res, err := c.Search(ctx, req); err != nil || len(res) == 0 {
			t.Errorf("%s: Search = %d results, %v", sh.name, len(res), err)
		}
		_, st1, err1 := c.SearchStatus(ctx, Request{Keywords: []string{"coffee"}, K: 2, SizeThreshold: 20})
		_, st2, err2 := c.SearchStatus(ctx, Request{Keywords: []string{"coffee"}, K: 2, SizeThreshold: 20})
		wantSt := [2]CacheStatus{CacheBypass, CacheBypass}
		if sh.cache {
			wantSt = [2]CacheStatus{CacheMiss, CacheHit}
		}
		if err1 != nil || err2 != nil || [2]CacheStatus{st1, st2} != wantSt {
			t.Errorf("%s: SearchStatus %s/%s (%v, %v), want %v", sh.name, st1, st2, err1, err2, wantSt)
		}
		stats := c.Stats()
		if (stats.Cache != nil) != sh.cache || (stats.Durability != nil) != sh.durable || (stats.Replication != nil) != sh.replica ||
			sh.durable && stats.Durability.Shards == 0 {
			t.Errorf("%s: stats blocks cache=%v durability=%v replication=%v", sh.name,
				stats.Cache != nil, stats.Durability != nil, stats.Replication != nil)
		}
		wantState := DurabilityState("")
		if sh.durable {
			wantState = DurabilityHealthy
		}
		if sh.refusal == ErrDurabilityDegraded {
			wantState = DurabilityDegraded
		}
		if got := c.DurabilityState(); got != wantState {
			t.Errorf("%s: DurabilityState = %q, want %q", sh.name, got, wantState)
		}
		if got := c.ReplicationStats().State; (got == "tailing") != sh.replica {
			t.Errorf("%s: ReplicationStats state = %q", sh.name, got)
		}
		rec := httptest.NewRecorder()
		c.ReplicationHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/manifest", nil))
		if (rec.Code == http.StatusOK) != sh.durable {
			t.Errorf("%s: replication manifest status %d", sh.name, rec.Code)
		}
		if target, proxy := c.RouteSearch(Request{MinEpoch: 1 << 40}); proxy != sh.replica || (sh.replica && target != leaderURL) {
			t.Errorf("%s: RouteSearch(future) = %q, %v", sh.name, target, proxy)
		}

		// Writes: every one answers the mode's typed error or publishes.
		insert := Delta{Changes: []FragmentChange{{
			Op: OpInsertFragment, ID: FragmentID{relation.String("Table"), relation.Int(int64(i))},
			TermCounts: map[string]int64{"table": 1}, TotalTerms: 1,
		}}}
		check := func(method string, err error) {
			t.Helper()
			if !errors.Is(err, sh.refusal) || (sh.refusal == nil && err != nil) {
				t.Errorf("%s: %s err = %v, want %v", sh.name, method, err, sh.refusal)
			}
		}
		_, err := c.Apply(ctx, insert)
		check("Apply", err)
		_, err = c.ApplyBatch(ctx, nil)
		check("ApplyBatch", err)
		_, err = c.Recrawl(ctx, db, []FragmentID{{relation.String("American"), relation.Int(10)}})
		check("Recrawl", err)
		_, err = c.RecrawlWith(ctx, db, nil, Delta{})
		check("RecrawlWith", err)
		_, err = c.RecrawlBatch(ctx, db, nil, nil)
		check("RecrawlBatch", err)
		_, err = c.CompactIfNeeded(ctx, 0.5)
		check("CompactIfNeeded", err)
		check("Checkpoint", c.Checkpoint(ctx))
		// Queue only buffers, so a degraded handle accepts it; the flush is
		// what the degraded guard refuses.
		n, err := c.Queue(Delta{})
		if sh.refusal == ErrDurabilityDegraded {
			if err != nil || n != 1 {
				t.Errorf("%s: degraded Queue = %d, %v, want 1 queued", sh.name, n, err)
			}
		} else {
			check("Queue", err)
		}
		_, err = c.Flush(ctx)
		check("Flush", err)

		if sh.refusal == ErrDurabilityDegraded {
			inj.Heal()
		}
		if err := c.Close(); err != nil {
			t.Errorf("%s: Close: %v", sh.name, err)
		}
	}
}
