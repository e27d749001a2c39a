package dash

// Serving-layer result caching and admission control: the optional layer
// Open wraps around any topology when WithResultCache and/or
// WithAdmissionControl are given. The cache memoizes finished result
// lists keyed by (canonical request, pinned epoch vector) — epoch-swap
// publishes make invalidation free, and on sharded topologies the key
// pins only the shards a query actually touches, so a publish on one
// shard leaves hot entries for the others valid. Singleflight collapses
// concurrent identical misses into one search; admission control sheds
// searches that cannot finish inside their deadline (or exceed the
// in-flight cap) with a fast ErrOverloaded instead of queueing them to
// time out. See internal/search/cache.go and admission.go for the
// mechanisms, ARCHITECTURE.md "Serving under load" for the policy.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/search"
)

// Serving-layer re-exports.
type (
	// Answer is one finished search as the result cache holds it: the
	// result list plus a memo slot for one encoding of it (Answer.Encoded),
	// shared by every caller the same search answered. Read-only.
	Answer = search.Answer
	// CacheStats reports the result cache's counters (EngineStats.Cache).
	CacheStats = search.CacheStats
	// AdmissionOptions configures WithAdmissionControl.
	AdmissionOptions = search.AdmissionOptions
	// AdmissionStats reports the admission controller's counters
	// (EngineStats.Admission).
	AdmissionStats = search.AdmissionStats
)

// ErrOverloaded reports that admission control shed the search; the
// caller should retry later. The /v1 HTTP layer maps it to 503 with a
// Retry-After header.
var ErrOverloaded = search.ErrOverloaded

// CacheStatus classifies how a search was answered, for surfaces (like
// the /v1 X-Cache header) that report cache effectiveness per request.
type CacheStatus string

const (
	// CacheHit: answered from the result cache (or by sharing a
	// concurrent identical search) — no expansion loop ran for this call.
	CacheHit CacheStatus = "hit"
	// CacheMiss: this call ran the search and (on success) populated the
	// cache.
	CacheMiss CacheStatus = "miss"
	// CacheBypass: no result cache is configured on the handle, or the
	// request was shed before reaching it.
	CacheBypass CacheStatus = "bypass"
)

// NewAnswer wraps the results of a handle that has no result cache, so a
// caller that writes responses from answers has one path for every handle.
func NewAnswer(res []Result) *Answer { return search.NewAnswer(res) }

// CachedSearcher is the status-reporting search surface of handles opened
// with WithResultCache. Plain Search/SearchBatch remain the contract;
// these variants additionally report how each call was answered.
type CachedSearcher interface {
	// SearchAnswer answers one query with the cache's own shared answer —
	// the same *Answer for the miss that computed it, the waiters collapsed
	// onto it and every later hit — plus the cache outcome. Search and
	// SearchStatus are views of it.
	SearchAnswer(ctx context.Context, req Request) (*Answer, CacheStatus, error)
	// SearchStatus is Search plus the cache outcome.
	SearchStatus(ctx context.Context, req Request) ([]Result, CacheStatus, error)
	// SearchBatchStatus is SearchBatch plus the batch-aggregate outcome:
	// CacheHit when every request was answered from the cache, CacheMiss
	// when any request ran a search.
	SearchBatchStatus(ctx context.Context, reqs []Request) ([]BatchResult, CacheStatus)
}

// WithResultCache bounds an epoch-keyed result cache of roughly maxBytes
// of stored results in front of the topology's search path. Cached
// responses are byte-identical to uncached ones (the key pins the exact
// snapshot epochs the result was computed from), a publish is never
// served stale results (a new epoch is a new key), and N concurrent
// identical misses run one search (singleflight). The returned handle
// additionally implements CachedSearcher.
func WithResultCache(maxBytes int64) Option {
	return func(c *openConfig) error {
		if maxBytes <= 0 {
			return fmt.Errorf("dash: WithResultCache(%d): byte budget must be > 0", maxBytes)
		}
		c.cacheBytes = maxBytes
		return nil
	}
}

// WithAdmissionControl sheds searches the engine cannot serve usefully:
// requests whose remaining deadline budget is below the estimated cost of
// one uncached search, and requests beyond opts.MaxInFlight concurrently
// admitted ones, fail fast with ErrOverloaded instead of queueing to time
// out. Pairs with WithResultCache — cache hits are answered before
// budget shedding would matter, and only uncached searches feed the cost
// estimator.
func WithAdmissionControl(opts AdmissionOptions) Option {
	return func(c *openConfig) error {
		if opts.MaxInFlight < 0 {
			return fmt.Errorf("dash: WithAdmissionControl: MaxInFlight %d must be >= 0", opts.MaxInFlight)
		}
		if opts.MinBudget < 0 {
			return fmt.Errorf("dash: WithAdmissionControl: MinBudget %v must be >= 0", opts.MinBudget)
		}
		c.admission = &opts
		return nil
	}
}

// servingCore is the snapshot-pinned search surface of one topology — the
// three operations the cached wrapper needs that the Handle contract does
// not expose: pin a consistent read view, run one already-normalized
// request against it, and read the handle's request defaults. Built by
// coreFor via type switch on Open's concrete handles.
type servingCore struct {
	// pin resolves the current read view, one snapshot per shard
	// (unsharded topologies: a single-element set).
	pin func() []*Snapshot
	// run answers one request against a pinned view. The request must
	// already carry the handle's CandidateLimit default: run goes
	// straight to the engine, bypassing the handle-level fill.
	run       func(ctx context.Context, snaps []*Snapshot, req Request) ([]Result, error)
	workers   int
	candLimit int
}

// coreFor extracts a servingCore from one of Open's concrete handles
// (unwrapping the durable layer, whose search path is its inner
// topology's).
func coreFor(h Handle) (servingCore, bool) {
	switch t := h.(type) {
	case *staticHandle:
		return servingCore{
			pin: func() []*Snapshot { return []*Snapshot{t.engine.Snapshot()} },
			run: func(ctx context.Context, snaps []*Snapshot, req Request) ([]Result, error) {
				return t.engine.SearchSnapshot(ctx, snaps[0], req)
			},
			workers:   t.workers,
			candLimit: t.candLimit,
		}, true
	case *LiveEngine:
		return servingCore{
			pin: func() []*Snapshot { return []*Snapshot{t.live.Snapshot()} },
			run: func(ctx context.Context, snaps []*Snapshot, req Request) ([]Result, error) {
				return t.engine.SearchSnapshot(ctx, snaps[0], req)
			},
			workers:   t.workers,
			candLimit: t.candLimit,
		}, true
	case *ShardedLiveEngine:
		return servingCore{
			pin:       t.engine.Pin,
			run:       t.engine.SearchPinned,
			workers:   t.workers,
			candLimit: t.candLimit,
		}, true
	case *durableHandle:
		core, ok := coreFor(t.Handle)
		return core, ok
	}
	return servingCore{}, false
}

// wrapServing layers the configured result cache and admission controller
// over a freshly opened handle. With neither configured the handle passes
// through untouched (so default Open keeps returning the concrete
// topology types). The wrapper preserves exactly the inner handle's
// optional capabilities: Queuer for the live topologies, plus
// Checkpointer/DurabilityReporter/Closer for durable handles — a cached
// static handle does not suddenly claim Queue/Flush.
func wrapServing(h Handle, cfg openConfig) (Handle, error) {
	if cfg.cacheBytes <= 0 && cfg.admission == nil {
		return h, nil
	}
	core, ok := coreFor(h)
	if !ok {
		return nil, fmt.Errorf("dash: cannot layer a result cache over %T", h)
	}
	ch := cachedHandle{inner: h, core: core}
	if cfg.cacheBytes > 0 {
		ch.cache = search.NewResultCache(cfg.cacheBytes)
	}
	if cfg.admission != nil {
		ch.ac = search.NewAdmissionController(*cfg.admission)
	}
	if d, ok := h.(*durableHandle); ok {
		return &cachedDurable{cachedQueuer: cachedQueuer{cachedHandle: ch, q: d}, d: d}, nil
	}
	if q, ok := h.(Queuer); ok {
		return &cachedQueuer{cachedHandle: ch, q: q}, nil
	}
	return &ch, nil
}

// cachedHandle implements the Handle contract over an inner topology:
// searches go through the admission controller and result cache,
// maintenance delegates to the inner handle and sweeps superseded cache
// entries after every call.
type cachedHandle struct {
	inner Handle
	core  servingCore
	cache *search.ResultCache // nil: admission only
	ac    *search.AdmissionController
}

// orBackground tolerates a nil context at the API boundary so a forgotten
// ctx degrades to "not cancellable" instead of a panic inside the cache
// and admission layers.
func orBackground(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}

// Search answers through the cache (see SearchAnswer).
func (ch *cachedHandle) Search(ctx context.Context, req Request) ([]Result, error) {
	res, _, err := ch.SearchStatus(ctx, req)
	return res, err
}

// SearchStatus is SearchAnswer reduced to the result list. The returned
// slice may be shared with other cache readers: treat it as immutable.
func (ch *cachedHandle) SearchStatus(ctx context.Context, req Request) ([]Result, CacheStatus, error) {
	ans, status, err := ch.SearchAnswer(ctx, req)
	if err != nil {
		return nil, status, err
	}
	return ans.Results(), status, nil
}

// SearchAnswer answers one top-k query through admission control and the
// result cache, reporting how. A handle without a cache (admission only)
// returns a fresh answer nobody else shares.
func (ch *cachedHandle) SearchAnswer(ctx context.Context, req Request) (*Answer, CacheStatus, error) {
	ctx = orBackground(ctx)
	if ch.ac != nil {
		deadline, ok := ctx.Deadline()
		release, err := ch.ac.Admit(deadline, ok)
		if err != nil {
			return nil, CacheBypass, err
		}
		defer release()
	}
	// Fill the handle default before normalizing: normalization folds the
	// explicit-unlimited negative spelling to 0, which the fill must not
	// then overwrite.
	norm := search.NormalizeRequest(fillCandidateLimit(req, ch.core.candLimit))
	snaps := ch.core.pin()
	if ch.cache == nil {
		res, err := ch.runObserved(ctx, snaps, norm)
		if err != nil {
			return nil, CacheBypass, err
		}
		return search.NewAnswer(res), CacheBypass, nil
	}
	// The pin vector stays on the stack for a hit; only a miss stores it.
	var buf [4]search.EpochPin
	pins := search.PinEpochs(buf[:0], snaps, norm.Keywords)
	key := search.CacheKey(norm, pins)
	if ans, ok := ch.cache.Lookup(key); ok {
		return ans, CacheHit, nil
	}
	return ch.fill(ctx, key, append([]search.EpochPin(nil), pins...), snaps, norm)
}

// fill answers a lookup that missed: through the singleflight, running the
// search if no identical one is in flight.
func (ch *cachedHandle) fill(ctx context.Context, key string, pins []search.EpochPin, snaps []*Snapshot, req Request) (*Answer, CacheStatus, error) {
	ans, outcome, err := ch.cache.Fill(ctx, key, pins, func(ctx context.Context) ([]Result, error) {
		return ch.runObserved(ctx, snaps, req)
	})
	if err != nil {
		return nil, CacheMiss, err
	}
	if outcome == search.CacheMiss {
		return ans, CacheMiss, nil
	}
	return ans, CacheHit, nil
}

// runObserved runs one uncached search and feeds its wall time to the
// admission cost estimator.
func (ch *cachedHandle) runObserved(ctx context.Context, snaps []*Snapshot, req Request) ([]Result, error) {
	start := time.Now()
	res, err := ch.core.run(ctx, snaps, req)
	if err == nil && ch.ac != nil {
		ch.ac.Observe(time.Since(start))
	}
	return res, err
}

// SearchBatch answers through the cache (see SearchBatchStatus).
func (ch *cachedHandle) SearchBatch(ctx context.Context, reqs []Request) []BatchResult {
	out, _ := ch.SearchBatchStatus(ctx, reqs)
	return out
}

// SearchBatchStatus evaluates a batch through the cache: the whole batch
// pins one read view (every request observes the same index state, the
// SearchBatch contract), each request resolves its own cache entry, and
// misses fan out over the handle's worker pool. Admission is per batch —
// one admitted batch holds one in-flight slot, and a shed batch fails
// every slot with ErrOverloaded.
func (ch *cachedHandle) SearchBatchStatus(ctx context.Context, reqs []Request) ([]BatchResult, CacheStatus) {
	ctx = orBackground(ctx)
	out := make([]BatchResult, len(reqs))
	status := CacheBypass
	if ch.cache != nil {
		status = CacheHit
	}
	if len(reqs) == 0 {
		return out, status
	}
	if ch.ac != nil {
		deadline, ok := ctx.Deadline()
		release, err := ch.ac.Admit(deadline, ok)
		if err != nil {
			for i := range out {
				out[i].Err = err
			}
			return out, CacheBypass
		}
		defer release()
	}
	if ch.cache == nil {
		// Admission-only wrapper: the inner handle's batch path already
		// pins once and fans out.
		return ch.inner.SearchBatch(ctx, reqs), CacheBypass
	}
	snaps := ch.core.pin()
	var mu sync.Mutex // guards status demotion across workers
	workers := ch.core.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(reqs) {
		workers = len(reqs)
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := ctx.Err(); err != nil {
					out[i].Err = err
					continue
				}
				req := search.NormalizeRequest(fillCandidateLimit(reqs[i], ch.core.candLimit))
				pins := search.PinEpochs(nil, snaps, req.Keywords)
				key := search.CacheKey(req, pins)
				ans, outcome, err := ch.cache.Do(ctx, key, pins, func(ctx context.Context) ([]Result, error) {
					return ch.runObserved(ctx, snaps, req)
				})
				if out[i].Err = err; err == nil {
					out[i].Results = ans.Results()
				}
				if outcome == search.CacheMiss {
					mu.Lock()
					status = CacheMiss
					mu.Unlock()
				}
			}
		}()
	}
	for i := range reqs {
		next <- i
	}
	close(next)
	wg.Wait()
	return out, status
}

// Stats reports the inner topology's serving stats with the cache and
// admission counters attached.
func (ch *cachedHandle) Stats() EngineStats {
	st := ch.inner.Stats()
	if ch.cache != nil {
		cs := ch.cache.Stats()
		st.Cache = &cs
	}
	if ch.ac != nil {
		as := ch.ac.Stats()
		st.Admission = &as
	}
	return st
}

// sweep drops cache entries pinning epochs the current read view has
// superseded. Run after every maintenance call; correctness never depends
// on it (a superseded epoch can never reappear in a lookup key), it just
// returns the capacity early.
func (ch *cachedHandle) sweep() {
	if ch.cache == nil {
		return
	}
	snaps := ch.core.pin()
	epochs := make([]uint64, len(snaps))
	for i, s := range snaps {
		epochs[i] = s.Epoch()
	}
	ch.cache.Sweep(epochs)
}

// Maintenance: delegate, then sweep. The sweep runs whether or not the
// call succeeded — a batched apply can have published on some shards
// before failing on another.

func (ch *cachedHandle) Apply(ctx context.Context, d Delta) (ApplyReport, error) {
	rep, err := ch.inner.Apply(ctx, d)
	ch.sweep()
	return rep, err
}

func (ch *cachedHandle) ApplyBatch(ctx context.Context, ds []Delta) (ApplyReport, error) {
	rep, err := ch.inner.ApplyBatch(ctx, ds)
	ch.sweep()
	return rep, err
}

func (ch *cachedHandle) Recrawl(ctx context.Context, db *Database, ids []FragmentID) (ApplyReport, error) {
	rep, err := ch.inner.Recrawl(ctx, db, ids)
	ch.sweep()
	return rep, err
}

func (ch *cachedHandle) RecrawlWith(ctx context.Context, db *Database, ids []FragmentID, extra Delta) (ApplyReport, error) {
	rep, err := ch.inner.RecrawlWith(ctx, db, ids, extra)
	ch.sweep()
	return rep, err
}

func (ch *cachedHandle) RecrawlBatch(ctx context.Context, db *Database, ids []FragmentID, ds []Delta) (ApplyReport, error) {
	rep, err := ch.inner.RecrawlBatch(ctx, db, ids, ds)
	ch.sweep()
	return rep, err
}

func (ch *cachedHandle) CompactIfNeeded(ctx context.Context, maxDeadRatio float64) (int, error) {
	n, err := ch.inner.CompactIfNeeded(ctx, maxDeadRatio)
	ch.sweep()
	return n, err
}

// cachedQueuer adds the Queuer capability when the inner handle has it
// (the live topologies and durable handles).
type cachedQueuer struct {
	cachedHandle
	q Queuer
}

// Queue buffers a delta on the inner handle; nothing publishes, so the
// cache needs no sweep yet.
func (cq *cachedQueuer) Queue(d Delta) int { return cq.q.Queue(d) }

// Flush publishes the queued batch and sweeps superseded cache entries.
func (cq *cachedQueuer) Flush(ctx context.Context) (ApplyReport, error) {
	rep, err := cq.q.Flush(ctx)
	cq.sweep()
	return rep, err
}

// cachedDurable adds the durable capabilities (Checkpointer,
// DurabilityReporter, io.Closer) when wrapping a durable handle.
type cachedDurable struct {
	cachedQueuer
	d *durableHandle
}

func (cd *cachedDurable) Checkpoint(ctx context.Context) error { return cd.d.Checkpoint(ctx) }

func (cd *cachedDurable) DurabilityStats() DurabilityStats { return cd.d.DurabilityStats() }

func (cd *cachedDurable) DurabilityState() DurabilityState { return cd.d.DurabilityState() }

func (cd *cachedDurable) DurabilityProbeIn() time.Duration { return cd.d.DurabilityProbeIn() }

func (cd *cachedDurable) Close() error { return cd.d.Close() }
