package search

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/fragindex"
	"repro/internal/webapp"
)

// ShardedEngine answers top-k searches over a partitioned serving index
// (fragindex.ShardedLiveIndex). A query pins one snapshot per shard (one
// atomic load each), scatters the existing zero-allocation scoring core
// across the shards on a bounded worker pool, and gather-merges the
// per-shard top-k lists into a global top-k.
//
// # Global IDF
//
// Dash's relevance uses IDF ≈ 1/DF over fragments. A shard only sees its
// own fragments, so per-shard DF would skew scores by shard layout. The
// engine therefore aggregates DF across the pinned shard snapshots at
// query seeding — DF_global(w) = Σ_shard DF_shard(w), an O(keywords ×
// shards) prefix per query — and passes 1/DF_global into every shard's
// scoring run. This makes sharded scores byte-identical to a single-index
// engine over the same corpus (the alternative, a periodically merged
// global stats table, would amortize the prefix but serve stale IDF
// between refreshes; exactness was chosen and is what the equivalence
// property tests pin down).
//
// # Determinism and single-index equivalence
//
// Equality groups never straddle shards (fragindex routing), so every
// db-page is assembled wholly inside one shard, its score is the exact
// float sequence a single-index run computes (same occurrence vectors,
// same global IDF), and the shard-local overlap/dedup decisions match a
// single-index run's. Per-shard result lists arrive in the canonical
// content-based order (compareResults — which the in-engine priority queue
// tie-break mirrors), and the merge re-sorts their concatenation with the
// same order. Consequently a sharded search is byte-identical to a
// single-index search — scores, order, parameter boxes — at S = 1 always,
// and at any S whenever K does not truncate the result stream.
//
// When K does truncate, the two sides cut differently by design:
// Algorithm 1's emission is greedy (an expansion can absorb a denser
// neighbour and raise a page's score, so the first K pages emitted are
// not always the K best), and the scatter-gather sees each shard's first
// K before ranking while a single index stops after K pages globally. The
// merged result is never worse: every returned page still carries the
// byte-exact single-index score, and the merge ranks over at least as
// many emitted pages. Request.CandidateLimit is similarly per-shard: it
// bounds postings read per keyword per shard, so a truncated sharded
// search may seed a different candidate set than a truncated single-index
// search.
//
// A ShardedEngine is safe for concurrent use by any number of goroutines.
type ShardedEngine struct {
	live    *fragindex.ShardedLiveIndex
	engines []*Engine
	app     *webapp.Application
	scratch sync.Pool // *shardedScratch
	// MaxFanout bounds how many shards one Search scatters over
	// concurrently (<= 0 means GOMAXPROCS). Set it before serving
	// traffic; it is not synchronized with in-flight searches.
	MaxFanout int
}

// shardedScratch pools the scatter bookkeeping one sharded query needs, so
// at S=1 the scatter adds no steady-state allocations over a single-index
// Search (only the returned results allocate, as in Engine).
type shardedScratch struct {
	kws    []string
	idf    []float64
	active []int
	per    [][]Result
	errs   []error
}

func (s *shardedScratch) reset() {
	s.kws = s.kws[:0]
	s.idf = s.idf[:0]
	s.active = s.active[:0]
	s.per = s.per[:0]
	s.errs = s.errs[:0]
}

// release drops the per-shard result and error references before the
// scratch returns to the pool, so an idle pooled scratch never pins the
// last query's pages (the caller's returned slice is unaffected — only
// the scratch's pointers to it are cleared).
func (s *shardedScratch) release() {
	clear(s.per)
	clear(s.errs)
}

// NewSharded creates a scatter-gather engine over a sharded live index.
// app may be nil when URL formulation is not needed.
func NewSharded(live *fragindex.ShardedLiveIndex, app *webapp.Application) *ShardedEngine {
	se := &ShardedEngine{live: live, app: app}
	se.scratch.New = func() any { return new(shardedScratch) }
	se.engines = make([]*Engine, live.NumShards())
	for i := range se.engines {
		se.engines[i] = New(live.Shard(i), app)
	}
	return se
}

// Live returns the underlying sharded index.
func (se *ShardedEngine) Live() *fragindex.ShardedLiveIndex { return se.live }

// App returns the engine's application (may be nil).
func (se *ShardedEngine) App() *webapp.Application { return se.app }

// NumShards returns the shard count.
func (se *ShardedEngine) NumShards() int { return len(se.engines) }

// Pin resolves the current snapshot of every shard — the read view one
// query (or one batch) runs against. Each snapshot is immutable, so a
// caller may hold the pinned set across calls for repeatable reads while
// the shards publish newer versions.
func (se *ShardedEngine) Pin() []*fragindex.Snapshot { return se.live.PinAll() }

// Search pins every shard's current snapshot and runs the request against
// the pinned set (see SearchPinned). An already-cancelled ctx returns
// ctx.Err() without pinning.
func (se *ShardedEngine) Search(ctx context.Context, req Request) ([]Result, error) {
	ctx = orBackground(ctx)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return se.SearchPinned(ctx, se.Pin(), req)
}

// SearchPinned runs one request against an explicitly pinned shard
// snapshot set (from Pin): seeds global IDF over the set, scatters the
// scoring core across shards on the worker pool, and merges the per-shard
// top-k lists into the canonical global top-k. A cancelled ctx abandons
// the shards still queued — in-flight shard runs stop at their next
// cooperative check — and the call returns ctx.Err().
func (se *ShardedEngine) SearchPinned(ctx context.Context, snaps []*fragindex.Snapshot, req Request) ([]Result, error) {
	return se.searchPinned(orBackground(ctx), snaps, req, se.MaxFanout)
}

// searchPinned is SearchPinned with an explicit scatter worker knob (<= 0:
// GOMAXPROCS, resolved only when there is more than one shard to scatter).
func (se *ShardedEngine) searchPinned(ctx context.Context, snaps []*fragindex.Snapshot, req Request, workers int) ([]Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(snaps) != len(se.engines) {
		return nil, fmt.Errorf("search: pinned %d snapshots for %d shards", len(snaps), len(se.engines))
	}
	if len(snaps) == 1 {
		// One shard is the whole corpus: its own IDF is the global one and
		// there is nothing to scatter or merge.
		return se.engines[0].SearchSnapshot(ctx, snaps[0], req)
	}
	s := se.scratch.Get().(*shardedScratch)
	defer func() {
		s.release()
		se.scratch.Put(s)
	}()
	s.reset()

	s.kws = normalizeKeywords(s.kws, req.Keywords)
	kws := s.kws
	if len(kws) == 0 {
		return nil, ErrNoKeywords
	}
	if req.K <= 0 {
		return nil, fmt.Errorf("%w: %d", ErrBadK, req.K)
	}
	// Global DF, summed over the pinned set; the per-shard runs score with
	// 1/DF_global instead of their shard-local IDF. The same pass finds the
	// shards worth scattering to: a shard where every queried keyword has
	// zero DF can only return an empty list, so it is skipped outright —
	// a cold keyword's query touches one shard, not all S.
	idf := s.idf
	if cap(idf) < len(kws) {
		idf = make([]float64, len(kws))
	} else {
		idf = idf[:len(kws)]
		clear(idf)
	}
	s.idf = idf
	for si, snap := range snaps {
		relevant := false
		for i, w := range kws {
			df := snap.DF(w)
			if df > 0 {
				idf[i] += float64(df)
				relevant = true
			}
		}
		if relevant {
			s.active = append(s.active, si)
		}
	}
	active := s.active
	for i, df := range idf {
		if df > 0 {
			idf[i] = 1 / df
		}
	}
	// Hand the shards the already-normalized keywords: normalization is
	// idempotent (a canonical — deduped, sorted — list normalizes to
	// itself), so each shard's scratch aligns with the idf slice.
	req.Keywords = kws

	n := len(active)
	per := s.per
	if cap(per) < n {
		per = make([][]Result, n)
	} else {
		per = per[:n] // entries were cleared by release before pooling
	}
	s.per = per
	errs := s.errs
	if cap(errs) < n {
		errs = make([]error, n)
	} else {
		errs = errs[:n]
	}
	s.errs = errs
	runPool(n, clampWorkers(workers), func(i int) {
		if err := ctx.Err(); err != nil {
			errs[i] = err // abandoned: this shard was queued behind the cancellation
			return
		}
		si := active[i]
		per[i], errs[i] = se.engines[si].searchSnapshot(ctx, snaps[si], req, idf)
	})
	for i, err := range errs {
		if err != nil {
			// A cancellation is the caller's own signal, not a shard
			// failure — return it unwrapped so errors.Is works directly.
			if err == context.Canceled || err == context.DeadlineExceeded || err == ctx.Err() {
				return nil, err
			}
			return nil, fmt.Errorf("search: shard %d: %w", active[i], err)
		}
	}
	// Gather. One active shard — every S=1 query, and any-S queries whose
	// keywords live on one shard — needs no merge at all: its list is
	// already canonically ordered and freshly allocated, so hand it back
	// truncated. Otherwise sort the concatenation with the same total
	// order the per-shard lists arrived in, which merges deterministically
	// (at most K results per shard survive, so this is O(S·K log(S·K)) on
	// tiny inputs, not a hot-path cost).
	if n == 1 {
		out := per[0]
		if len(out) > req.K {
			out = out[:req.K:req.K]
		}
		return out, nil
	}
	var all []Result
	for _, rs := range per {
		all = append(all, rs...)
	}
	sortResults(all)
	if len(all) > req.K {
		all = all[:req.K:req.K]
	}
	return all, nil
}

// SearchBatch evaluates a batch of requests concurrently with a
// runtime-chosen worker count — the Searcher-contract form of
// ParallelSearch. out[i] answers reqs[i]; the whole batch is pinned to one
// shard snapshot set.
func (se *ShardedEngine) SearchBatch(ctx context.Context, reqs []Request) []BatchResult {
	return se.ParallelSearch(ctx, reqs, 0)
}

// ParallelSearch evaluates N requests over at most `workers` goroutines
// (workers <= 0 means GOMAXPROCS). The whole batch is pinned to one shard
// snapshot set, so every request observes the same index state; out[i]
// answers reqs[i] exactly as a serial Search would have. Parallelism comes
// from the batch — each request's scatter runs sequentially inside its
// worker, which keeps the goroutine count bounded by `workers` and the
// merge deterministic. Cancelling ctx abandons queued requests; abandoned
// slots carry ctx.Err().
func (se *ShardedEngine) ParallelSearch(ctx context.Context, reqs []Request, workers int) []BatchResult {
	ctx = orBackground(ctx)
	out := make([]BatchResult, len(reqs))
	if len(reqs) == 0 {
		return out
	}
	if err := ctx.Err(); err != nil {
		for i := range out {
			out[i].Err = err
		}
		return out
	}
	snaps := se.Pin()
	runPool(len(reqs), clampWorkers(workers), func(i int) {
		if err := ctx.Err(); err != nil {
			out[i].Err = err
			return
		}
		out[i].Results, out[i].Err = se.searchPinned(ctx, snaps, reqs[i], 1)
	})
	return out
}
