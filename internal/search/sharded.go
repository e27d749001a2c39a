package search

import (
	"context"
	"fmt"

	"repro/internal/fragindex"
	"repro/internal/webapp"
)

// ShardedEngine answers top-k searches over a partitioned serving index
// (fragindex.ShardedLiveIndex). A query pins one snapshot per shard (one
// atomic load each) and runs Algorithm 1 once over the pinned set: the
// scoring core an Engine runs over its one snapshot, here over S.
//
// # One queue over the pinned set
//
// Every fragment of the set is a candidate under its global ref — its
// shard's base (the running sum of the preceding snapshots' NumRefs) plus
// its own ref — so one seed arena, one set of dense tables and one priority
// queue cover all shards. IDF is 1/ΣDF over the set, and CandidateLimit's
// cut runs over the union of the shards' postings, both exactly what a
// single index over the same corpus computes. Equality groups never
// straddle shards (fragindex routing), so a page is assembled, deduplicated
// and formulated inside one shard's snapshot. The queue's tie-break is
// content-based, so emission order does not depend on the shard layout: a
// sharded search is byte-identical to a single-index search — scores,
// order, parameter boxes — at every S, K and CandidateLimit. Only
// Result.Fragments differs: it holds the shard's own refs.
//
// Concurrency comes from concurrent requests and batches, not from inside
// one query. A ShardedEngine is safe for concurrent use by any number of
// goroutines.
type ShardedEngine struct {
	live *fragindex.ShardedLiveIndex
	core
}

// NewSharded creates an engine over a sharded live index. app may be nil
// when URL formulation is not needed.
func NewSharded(live *fragindex.ShardedLiveIndex, app *webapp.Application) *ShardedEngine {
	se := &ShardedEngine{live: live}
	se.init(app, live.PinAll)
	return se
}

// Live returns the underlying sharded index.
func (se *ShardedEngine) Live() *fragindex.ShardedLiveIndex { return se.live }

// NumShards returns the shard count.
func (se *ShardedEngine) NumShards() int { return se.live.NumShards() }

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
// snapshot set (from Pin). Cancellation behaves as in Engine.Search.
func (se *ShardedEngine) SearchPinned(ctx context.Context, snaps []*fragindex.Snapshot, req Request) ([]Result, error) {
	if len(snaps) != se.NumShards() {
		return nil, fmt.Errorf("search: pinned %d snapshots for %d shards", len(snaps), se.NumShards())
	}
	return se.search(orBackground(ctx), req, snaps...)
}
