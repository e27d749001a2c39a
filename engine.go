package dash

// The one serving handle. Open and OpenReplica both return a
// *ServingEngine: a search engine over a sharded live index
// (one shard is the single-index topology) with optional layers hanging
// off it as fields — result cache, admission control, durable store,
// leader-side read router, replica tail — and exactly one search path and
// one maintenance path through them.

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/crawl"
	"repro/internal/durable"
	"repro/internal/fragindex"
	"repro/internal/replic"
	"repro/internal/search"
)

// EngineStats is the unified serving report every handle's Stats answers:
// the index and search counters, plus one block per configured layer (nil
// when the layer is absent). The embedded fields flatten, so the JSON is
// one flat object.
type EngineStats struct {
	search.Stats
	// Durability reports the durable store's journal, checkpoint and health
	// counters (WithDataDir).
	Durability *DurabilityStats `json:"durability,omitempty"`
	// Replication reports a replica's tail state (OpenReplica).
	Replication *ReplicationStats `json:"replication,omitempty"`
	// Replicas reports a routing leader's per-replica placement
	// (WithReplicas).
	Replicas *ReplicaRouterStats `json:"replicas,omitempty"`
}

// ServingEngine is the concrete handle Open and OpenReplica return. A
// method whose layer is absent answers the typed error of the handle's
// mode, or the zero report. All methods are safe for concurrent use.
type ServingEngine struct {
	live   *fragindex.ShardedLiveIndex
	engine *search.ShardedEngine
	app    *Application

	// mu serializes the maintenance cycle (derive + apply), so delta
	// classification always runs against the latest published state.
	mu sync.Mutex
	// pendMu guards the Queue/Flush buffer of unrouted deltas.
	pendMu  sync.Mutex
	pending []Delta

	cache     *search.ResultCache         // WithResultCache
	admission *search.AdmissionController // WithAdmissionControl
	store     *durable.Store              // WithDataDir
	router    *replic.Router              // WithReplicas
	replica   *replic.Replica             // OpenReplica
	// staleness is the bounded-staleness contract in epochs (negative:
	// unbounded): how far behind a replica the router may place a read
	// on, or how far a replica may lag before it sends reads back.
	staleness int64
	// pinned, when set, runs right after a search pins its view: the test
	// seam for publishing between the pin and the rest of the search path.
	pinned func()
}

// newEngine builds a handle's serving layers from its configuration; serve
// attaches the index.
func newEngine(cfg openConfig, app *Application) *ServingEngine {
	e := &ServingEngine{app: app, staleness: cfg.staleness}
	if cfg.cacheBytes > 0 {
		e.cache = search.NewResultCache(cfg.cacheBytes)
	}
	if cfg.admission != nil {
		e.admission = search.NewAdmissionController(*cfg.admission)
	}
	return e
}

func (e *ServingEngine) serve(sl *fragindex.ShardedLiveIndex) {
	e.live = sl
	e.engine = search.NewSharded(sl, e.app)
}

// Live returns the served index for reads (per-shard snapshots, stats,
// routing). Write through the handle: a write on the index itself skips
// the handle's refusals, degraded guard and maintenance lock.
func (e *ServingEngine) Live() *ShardedLiveIndex { return e.live }

// Pin resolves one snapshot per shard: a read view SearchPinned can answer
// against repeatably while newer versions are published.
func (e *ServingEngine) Pin() []*Snapshot { return e.engine.Pin() }

// SearchPinned answers a request against a view from Pin, bypassing the
// result cache and admission control.
func (e *ServingEngine) SearchPinned(ctx context.Context, snaps []*Snapshot, req Request) ([]Result, error) {
	return e.engine.SearchPinned(ctx, snaps, req)
}

// Search answers one query (see SearchAnswer).
func (e *ServingEngine) Search(ctx context.Context, req Request) ([]Result, error) {
	res, _, err := e.SearchStatus(ctx, req)
	return res, err
}

// SearchStatus is SearchAnswer reduced to the result list, which may be
// shared with other cache readers: treat it as immutable.
func (e *ServingEngine) SearchStatus(ctx context.Context, req Request) ([]Result, CacheStatus, error) {
	ans, status, err := e.SearchAnswer(ctx, req)
	if err != nil {
		return nil, status, err
	}
	return ans.Results(), status, nil
}

// SearchAnswer is the one search path: admit, pin, then answer through
// the result cache. Without a cache the answer is fresh and unshared, and
// the status is CacheBypass. A replica refuses a request whose MinEpoch it
// has not applied with ErrReplicaBehind.
func (e *ServingEngine) SearchAnswer(ctx context.Context, req Request) (*Answer, CacheStatus, error) {
	ctx = orBackground(ctx)
	if e.admission != nil {
		release, err := e.admission.Admit(ctx.Deadline())
		if err != nil {
			return nil, CacheBypass, err
		}
		defer release()
	}
	if err := behind(req, e.applied()); err != nil {
		return nil, CacheBypass, err
	}
	snaps := e.engine.Pin()
	if e.pinned != nil {
		e.pinned()
	}
	return e.answer(ctx, snaps, req)
}

// answer runs one request against a pinned view.
func (e *ServingEngine) answer(ctx context.Context, snaps []*Snapshot, req Request) (*Answer, CacheStatus, error) {
	if e.cache == nil {
		res, err := e.run(ctx, snaps, req)
		if err != nil {
			return nil, CacheBypass, err
		}
		return search.NewAnswer(res), CacheBypass, nil
	}
	req = search.NormalizeRequest(req)
	// The pin vector stays on the stack for a hit; only a miss stores it.
	var buf [4]search.EpochPin
	pins := search.PinEpochs(buf[:0], snaps, req.Keywords)
	key := search.CacheKey(req, pins)
	if ans, ok := e.cache.Lookup(key); ok {
		return ans, CacheHit, nil
	}
	return e.fill(ctx, key, append([]search.EpochPin(nil), pins...), snaps, req)
}

// fill answers a lookup that missed through the singleflight. It is a
// method of its own so the closure it builds costs nothing on a hit.
func (e *ServingEngine) fill(ctx context.Context, key string, pins []search.EpochPin, snaps []*Snapshot, req Request) (*Answer, CacheStatus, error) {
	ans, outcome, err := e.cache.Fill(ctx, key, pins, func(ctx context.Context) ([]Result, error) {
		return e.run(ctx, snaps, req)
	})
	if err != nil || outcome == search.CacheMiss {
		return ans, CacheMiss, err
	}
	return ans, CacheHit, nil
}

// run answers one uncached search, feeding its wall time to the admission
// cost estimator.
func (e *ServingEngine) run(ctx context.Context, snaps []*Snapshot, req Request) ([]Result, error) {
	if e.admission == nil {
		return e.engine.SearchPinned(ctx, snaps, req)
	}
	start := time.Now()
	res, err := e.engine.SearchPinned(ctx, snaps, req)
	if err == nil {
		e.admission.Observe(time.Since(start))
	}
	return res, err
}

// SearchBatch answers a batch (see SearchBatchStatus).
func (e *ServingEngine) SearchBatch(ctx context.Context, reqs []Request) []BatchResult {
	out, _ := e.SearchBatchStatus(ctx, reqs)
	return out
}

// SearchBatchStatus answers a batch against one pinned view (every request
// observes the same index state) over the handle's worker pool, each
// request through the one search path. Admission is per batch: a shed
// batch fails every slot with ErrOverloaded. The status is CacheMiss when
// any request ran a search, CacheHit when none did but at least one was
// answered from the cache, and CacheBypass when no slot reached the cache
// (none configured, or every slot refused or abandoned).
func (e *ServingEngine) SearchBatchStatus(ctx context.Context, reqs []Request) ([]BatchResult, CacheStatus) {
	ctx = orBackground(ctx)
	out := make([]BatchResult, len(reqs))
	if len(reqs) == 0 {
		return out, CacheBypass
	}
	if e.admission != nil {
		release, err := e.admission.Admit(ctx.Deadline())
		if err != nil {
			for i := range out {
				out[i].Err = err
			}
			return out, CacheBypass
		}
		defer release()
	}
	applied := e.applied()
	snaps := e.engine.Pin()
	if e.pinned != nil {
		e.pinned()
	}
	var hit, missed atomic.Bool
	search.RunPool(len(reqs), 0, func(i int) {
		if err := ctx.Err(); err != nil {
			out[i].Err = err // abandoned: queued behind the cancellation
			return
		}
		if out[i].Err = behind(reqs[i], applied); out[i].Err != nil {
			return
		}
		ans, st, err := e.answer(ctx, snaps, reqs[i])
		if out[i].Err = err; err == nil {
			out[i].Results = ans.Results()
		}
		switch st {
		case CacheHit:
			hit.Store(true)
		case CacheMiss:
			missed.Store(true)
		}
	})
	switch {
	case missed.Load():
		return out, CacheMiss
	case hit.Load():
		return out, CacheHit
	}
	return out, CacheBypass
}

// refuse is the write gate: a replica refuses every write.
func (e *ServingEngine) refuse() error {
	if e.replica != nil {
		return ErrReplicaReadOnly
	}
	return nil
}

// refuseDurable is refuse plus the degraded guard: while the data dir is
// degraded a durable write fails fast, before any fold or publish runs, so
// degraded writes stay cheap and their errors unwrapped. Searches are
// never gated.
func (e *ServingEngine) refuseDurable() error {
	if err := e.refuse(); err != nil || e.store == nil {
		return err
	}
	return e.store.DegradedErr()
}

// Apply folds one delta into the index and publishes it.
func (e *ServingEngine) Apply(ctx context.Context, d Delta) (ApplyReport, error) {
	return e.RecrawlWith(ctx, nil, nil, d)
}

// ApplyBatch coalesces a sequence of deltas and publishes their net effect
// once per touched shard.
func (e *ServingEngine) ApplyBatch(ctx context.Context, ds []Delta) (ApplyReport, error) {
	return e.RecrawlBatch(ctx, nil, nil, ds)
}

// Recrawl re-executes the application query for the given partitions only,
// derives the delta, and publishes it. db must follow Database's rule:
// rows are appended, or a table's Rows replaced by a new slice, never
// edited in place (see the package doc).
func (e *ServingEngine) Recrawl(ctx context.Context, db *Database, ids []FragmentID) (ApplyReport, error) {
	return e.RecrawlWith(ctx, db, ids, Delta{})
}

// RecrawlWith combines a targeted re-crawl with explicit extra changes in
// one delta; db follows the same rule as for Recrawl.
func (e *ServingEngine) RecrawlWith(ctx context.Context, db *Database, ids []FragmentID, extra Delta) (ApplyReport, error) {
	return e.maintain(ctx, db, ids, []Delta{extra}, false)
}

// RecrawlBatch combines a targeted re-crawl with a batch of explicit deltas;
// everything coalesces into one publish per touched shard. db follows the
// same rule as for Recrawl.
func (e *ServingEngine) RecrawlBatch(ctx context.Context, db *Database, ids []FragmentID, ds []Delta) (ApplyReport, error) {
	return e.maintain(ctx, db, ids, ds, true)
}

// maintain is the one maintenance path: refuse, lock, derive, apply.
// Derivation runs under the same lock as the apply and classifies against
// the latest published state, so concurrent maintenance calls observe each
// other instead of racing. Unbatched, the derived changes join ds[0] (one
// delta); batched, they join ds as one more delta. A ctx cancelled during
// derivation or apply publishes nothing.
func (e *ServingEngine) maintain(ctx context.Context, db *Database, ids []FragmentID, ds []Delta, batch bool) (ApplyReport, error) {
	if err := e.refuseDurable(); err != nil {
		return ApplyReport{}, err
	}
	if len(ids) > 0 && e.app == nil {
		return ApplyReport{}, errors.New("dash: Recrawl needs an application bound to the engine")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(ids) > 0 {
		bound, err := e.app.Bound()
		if err != nil {
			return ApplyReport{}, err
		}
		derived, err := crawl.DeriveDelta(ctx, db, bound, ids, e.live.Has)
		if err != nil {
			return ApplyReport{}, err
		}
		// Full slice expressions: the appends copy, never writing into the
		// caller's arrays.
		if batch {
			ds = append(ds[:len(ds):len(ds)], derived)
		} else {
			d := ds[0]
			if d.SelAttrs == nil {
				d.SelAttrs = derived.SelAttrs
			}
			d.Changes = append(d.Changes[:len(d.Changes):len(d.Changes)], derived.Changes...)
			ds = []Delta{d}
		}
	}
	var rep ApplyReport
	var err error
	if batch {
		rep, err = e.live.ApplyBatch(ctx, ds)
	} else {
		rep, err = e.live.Apply(ctx, ds[0])
	}
	if e.live.NumShards() == 1 {
		rep.PerShard = nil // one publish cycle: the total is the whole story
	}
	return rep, err
}

// Queue buffers a delta for a later Flush without publishing, returning the
// queue length. It never waits for the writer, and it accepts deltas while
// the data dir is degraded — only Flush publishes.
func (e *ServingEngine) Queue(d Delta) (int, error) {
	if err := e.refuse(); err != nil {
		return 0, err
	}
	e.pendMu.Lock()
	defer e.pendMu.Unlock()
	e.pending = append(e.pending, d)
	return len(e.pending), nil
}

// Flush publishes every queued delta as one coalesced batch. A refused
// flush or an already-cancelled ctx leaves the queue intact; after the
// drain the batch is gone whether or not the apply succeeds.
func (e *ServingEngine) Flush(ctx context.Context) (ApplyReport, error) {
	if err := e.refuseDurable(); err != nil {
		return ApplyReport{}, err
	}
	if err := orBackground(ctx).Err(); err != nil {
		return ApplyReport{}, err
	}
	e.pendMu.Lock()
	batch := e.pending
	e.pending = nil
	e.pendMu.Unlock()
	return e.RecrawlBatch(ctx, nil, nil, batch)
}

// CompactIfNeeded runs the snapshot garbage collector on every shard and
// returns how many compacted. On a durable handle it then checkpoints every
// shard, compacted or not, so the journal is truncated and the on-disk
// generation is the served state. Replicas refuse: a local compaction
// would advance epochs outside the leader's sequence.
func (e *ServingEngine) CompactIfNeeded(ctx context.Context, maxDeadRatio float64) (int, error) {
	if err := e.refuseDurable(); err != nil {
		return 0, err
	}
	n, err := e.live.CompactIfNeeded(ctx, maxDeadRatio)
	if err != nil || e.store == nil {
		return n, err
	}
	return n, e.Checkpoint(ctx)
}

// Stats reports the served index with one block per configured layer.
// Topology names the shape: "live" for one shard, "sharded" beyond;
// per-shard detail appears only with more than one shard.
func (e *ServingEngine) Stats() EngineStats {
	st := EngineStats{Stats: e.engine.Stats()}
	e.pendMu.Lock()
	st.Queued = len(e.pending)
	e.pendMu.Unlock()
	if e.cache != nil {
		cs := e.cache.Stats()
		st.Cache = &cs
	}
	if e.admission != nil {
		as := e.admission.Stats()
		st.Admission = &as
	}
	if e.store != nil {
		ds := e.store.Stats()
		st.Durability = &ds
	}
	if e.replica != nil {
		rs := e.replica.Stats()
		st.Replication = &rs
	}
	if e.router != nil {
		rs := e.router.Stats()
		st.Replicas = &rs
	}
	return st
}

// Close stops the read router and the replica tail, then flushes unsynced
// journal appends and releases the data directory. The last published state
// keeps serving searches; further durable writes fail, so close last.
func (e *ServingEngine) Close() error {
	if e.router != nil {
		e.router.Stop()
	}
	if e.replica != nil {
		return e.replica.Close()
	}
	if e.store != nil {
		return e.store.Close()
	}
	return nil
}
