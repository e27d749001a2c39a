package fragindex

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/crawl"
	"repro/internal/fragment"
	"repro/internal/relation"
)

// ShardedLiveIndex partitions the fragment space across S independent
// LiveIndex shards so writes scale with cores: every shard owns
// its own freeze-and-swap publish cycle (an apply touching one shard clones
// and publishes only there), and a search pins one snapshot per shard and
// runs one query over the pinned set.
//
// # Routing
//
// A fragment's shard is the FNV-1a hash of its equality-group key (the
// fragment identifier's equality-attribute values) modulo the shard count.
// Hashing the group key — not the whole identifier — guarantees an equality
// group never straddles shards, so the fragment graph's paths stay intact:
// every db-page a search can assemble lives wholly inside one shard, with
// no cross-shard page stitching. (A query with no equality attributes has a single group
// and therefore degenerates to one busy shard; sharding pays off in
// proportion to group-key cardinality.)
//
// # Concurrency
//
// Reads never lock: PinAll is one atomic load per shard, and the pinned set
// is immutable for the query's lifetime. Writes scale with shards:
// Apply/ApplyBatch route changes to their shards and run the per-shard
// applies concurrently — each shard keeps its single-writer discipline
// behind its own lock, and there is no global write lock. Like LiveIndex,
// the structure is designed for one logical maintenance writer: concurrent
// Apply calls are safe structurally, but insert-vs-update classification of
// the same fragment races at the application level.
//
// Each per-shard apply is transactional (a failing shard publishes
// nothing). Before any shard folds, an apply touching several shards
// checks every change against its shard's state (checkStates), so a
// change one shard would refuse — an insert of a present fragment, an
// update or removal of an absent one, an invalid keyword count — publishes
// nowhere. Beyond that, cross-shard atomicity is intentionally not
// provided: when a shard fails for a reason the check cannot see (a
// cancelled ctx, a publish-hook error), other shards' publishes stand, and
// the error names the failing shard. A sharded search is likewise internally
// consistent per shard — each pinned snapshot is immutable — while the
// pinned set as a whole is an exact point-in-time cut only between
// publishes.
type ShardedLiveIndex struct {
	spec   Spec
	eqIdx  []int
	shards []*LiveIndex

	// deltas counts the logical deltas routed through Apply/ApplyBatch
	// that published somewhere — the same meaning LiveIndex.Stats reports
	// for a single index, independent of how many shards each batch
	// touched (each touched shard's own counter records one shard-local
	// apply per routed publish).
	deltas atomic.Uint64
}

// NewShardedLive partitions a built index across n shards and takes
// ownership of idx: all further access must go through the returned
// ShardedLiveIndex. With n == 1 the index is wrapped directly (no copy);
// for n > 1 each shard restores the Dump of the fragments routed to it.
// A Dump is identifier-ordered, so per-shard posting lists and group paths
// match what building each shard from a routed crawl output would produce;
// each shard publishes at the count of fragments it holds, the epoch
// inserting them one by one would reach.
func NewShardedLive(idx *Index, n int) (*ShardedLiveIndex, error) {
	if n < 1 {
		return nil, fmt.Errorf("fragindex: shard count %d, want >= 1", n)
	}
	s := idx.s
	eqIdx, _, err := s.spec.indices()
	if err != nil {
		return nil, err
	}
	sl := &ShardedLiveIndex{spec: s.spec, eqIdx: eqIdx}
	if n == 1 {
		sl.shards = []*LiveIndex{NewLive(idx)}
		return sl, nil
	}
	sl.shards = make([]*LiveIndex, n)
	for i := range sl.shards {
		d := s.dump(func(ref FragRef) bool { return sl.shardOf(s.metaAt(ref).ID) == i })
		d.Epoch = uint64(len(d.FragKeys))
		b, err := Restore(d)
		if err != nil {
			return nil, fmt.Errorf("fragindex: partitioning shard %d: %w", i, err)
		}
		sl.shards[i] = NewLive(b)
	}
	return sl, nil
}

// NewShardedLiveFrom assembles a sharded index from per-shard builders that
// were already partitioned — the durable layer's recovery path, where each
// shard's builder is restored from its own snapshot + journal and must NOT be
// re-routed (re-partitioning would move fragments whose routed shard already
// journaled them). The builders must share one spec and their order is the
// shard order; ownership transfers to the returned index.
func NewShardedLiveFrom(builders []*Index) (*ShardedLiveIndex, error) {
	if len(builders) == 0 {
		return nil, fmt.Errorf("fragindex: no shard builders")
	}
	spec := builders[0].s.spec
	eqIdx, _, err := spec.indices()
	if err != nil {
		return nil, err
	}
	sl := &ShardedLiveIndex{spec: spec, eqIdx: eqIdx, shards: make([]*LiveIndex, len(builders))}
	for i, b := range builders {
		bs := b.s.spec
		if !slices.Equal(bs.SelAttrs, spec.SelAttrs) ||
			!slices.Equal(bs.EqAttrs, spec.EqAttrs) || bs.RangeAttr != spec.RangeAttr {
			return nil, fmt.Errorf("fragindex: shard %d spec %v disagrees with shard 0 spec %v",
				i, bs.SelAttrs, spec.SelAttrs)
		}
		sl.shards[i] = NewLive(b)
	}
	return sl, nil
}

// NumShards returns the shard count.
func (sl *ShardedLiveIndex) NumShards() int { return len(sl.shards) }

// Shard returns shard i's LiveIndex for direct access (per-shard stats,
// explicit snapshots).
func (sl *ShardedLiveIndex) Shard(i int) *LiveIndex { return sl.shards[i] }

// Spec returns the index's selection-attribute structure.
func (sl *ShardedLiveIndex) Spec() Spec { return sl.spec }

// shardOf routes an identifier of validated arity to its shard.
func (sl *ShardedLiveIndex) shardOf(id fragment.ID) int {
	eq := make([]relation.Value, len(sl.eqIdx))
	for i, j := range sl.eqIdx {
		eq[i] = id[j]
	}
	return int(fnv32(relation.Key(eq)) % uint32(len(sl.shards)))
}

// ShardFor returns the shard a fragment identifier routes to: the hash of
// its equality-group key, so all members of one group share a shard.
func (sl *ShardedLiveIndex) ShardFor(id fragment.ID) (int, error) {
	if len(id) != len(sl.spec.SelAttrs) {
		return 0, fmt.Errorf("%w: id %v has %d values, want %d",
			ErrBadIDArity, id, len(id), len(sl.spec.SelAttrs))
	}
	return sl.shardOf(id), nil
}

// PinAll resolves the current published snapshot of every shard — one
// atomic load each, no locks. Each snapshot is immutable; the set is the
// read view a sharded search runs against.
func (sl *ShardedLiveIndex) PinAll() []*Snapshot {
	out := make([]*Snapshot, len(sl.shards))
	for i, sh := range sl.shards {
		out[i] = sh.Snapshot()
	}
	return out
}

// Epochs returns every shard's published epoch, in shard order.
func (sl *ShardedLiveIndex) Epochs() []uint64 {
	out := make([]uint64, len(sl.shards))
	for i, sh := range sl.shards {
		out[i] = sh.Snapshot().epoch
	}
	return out
}

// Has reports whether a live fragment with the given identifier exists in
// its routed shard's current snapshot.
func (sl *ShardedLiveIndex) Has(id fragment.ID) bool {
	si, err := sl.ShardFor(id)
	if err != nil {
		return false
	}
	return sl.shards[si].Snapshot().Has(id)
}

// checkSpec rejects deltas whose selection attributes disagree with the
// index spec (empty SelAttrs skips the check).
func (sl *ShardedLiveIndex) checkSpec(selAttrs []string) error {
	if len(selAttrs) > 0 && !slices.Equal(selAttrs, sl.spec.SelAttrs) {
		return fmt.Errorf("%w: delta %v, index %v", ErrDeltaSpec, selAttrs, sl.spec.SelAttrs)
	}
	return nil
}

// ShardApply is one shard's share of a routed apply. Its embedded stats
// are the shard's own report: Deltas is 1 (the shard applied one routed,
// already-coalesced delta), and the clone counters cover that shard's
// publish only.
type ShardApply struct {
	Shard int `json:"shard"`
	ApplyStats
}

// ShardedApplyStats reports a routed apply: the summed totals plus what
// each touched shard published. Total.Deltas is the logical delta count
// of the call (1 for Apply, the batch size for ApplyBatch) and
// Total.Epoch the highest epoch across shards after the apply — for a
// no-op that is the current highest published epoch, matching
// LiveIndex's no-op contract (shards advance their epochs
// independently).
type ShardedApplyStats struct {
	Total ApplyStats `json:"total"`
	// PerShard lists only the shards the apply touched, ascending.
	PerShard []ShardApply `json:"per_shard,omitempty"`
}

// maxEpoch returns the highest currently published epoch across shards.
func (sl *ShardedLiveIndex) maxEpoch() uint64 {
	var max uint64
	for _, sh := range sl.shards {
		if e := sh.Snapshot().epoch; e > max {
			max = e
		}
	}
	return max
}

// Apply routes a delta's changes to their shards and applies them
// concurrently, one transactional publish per touched shard. Changes for
// the same fragment keep their order (they route to the same shard). A
// change its shard's state refuses publishes nowhere (see
// ShardedLiveIndex); past that check cross-shard atomicity is not
// provided: on error the failing shard has published nothing, but other
// shards' publishes stand. A cancelled ctx
// behaves the same way — each shard's apply observes the cancellation
// independently and rolls its own slice back; an already-cancelled ctx
// publishes nowhere.
func (sl *ShardedLiveIndex) Apply(ctx context.Context, d crawl.Delta) (ShardedApplyStats, error) {
	if err := sl.checkSpec(d.SelAttrs); err != nil {
		return ShardedApplyStats{}, err
	}
	return sl.applyRouted(ctx, d.SelAttrs, d.Changes, 1)
}

// ApplyBatch coalesces a sequence of deltas (crawl.Coalesce) and routes the
// net changes to their shards, applying concurrently — each touched shard
// pays one publish for the whole batch, and untouched shards pay nothing.
// Like Apply, per-shard applies are transactional but cross-shard atomicity
// is not provided.
func (sl *ShardedLiveIndex) ApplyBatch(ctx context.Context, ds []crawl.Delta) (ShardedApplyStats, error) {
	for _, d := range ds {
		if err := sl.checkSpec(d.SelAttrs); err != nil {
			return ShardedApplyStats{}, err
		}
	}
	folded, err := crawl.Coalesce(ds)
	if err != nil {
		return ShardedApplyStats{}, err
	}
	return sl.applyRouted(ctx, folded.SelAttrs, folded.Changes, len(ds))
}

// applyRouted partitions changes by shard and applies each shard's slice
// concurrently. deltas is the logical delta count for stats.
func (sl *ShardedLiveIndex) applyRouted(ctx context.Context, selAttrs []string, changes []crawl.FragmentChange, deltas int) (ShardedApplyStats, error) {
	ctx = orBackground(ctx)
	if err := ctx.Err(); err != nil {
		return ShardedApplyStats{}, err
	}
	out := ShardedApplyStats{Total: ApplyStats{Deltas: deltas}}
	if len(changes) == 0 {
		out.Total.Epoch = sl.maxEpoch()
		return out, nil
	}
	per := make([][]crawl.FragmentChange, len(sl.shards))
	for _, ch := range changes {
		si, err := sl.ShardFor(ch.ID)
		if err != nil {
			return ShardedApplyStats{}, err
		}
		per[si] = append(per[si], ch)
	}
	if err := sl.checkStates(per); err != nil {
		return ShardedApplyStats{}, err
	}
	stats := make([]ApplyStats, len(sl.shards))
	errs := make([]error, len(sl.shards))
	apply := func(si int) {
		stats[si], errs[si] = sl.shards[si].Apply(ctx, crawl.Delta{SelAttrs: selAttrs, Changes: per[si]})
	}
	// The first touched shard applies on the calling goroutine, the rest
	// concurrently beside it: a one-shard apply (every S=1 apply) spawns
	// nothing.
	var wg sync.WaitGroup
	first := -1
	for si, chs := range per {
		switch {
		case len(chs) == 0:
		case first < 0:
			first = si
		default:
			wg.Add(1)
			go func(si int) {
				defer wg.Done()
				apply(si)
			}(si)
		}
	}
	apply(first)
	wg.Wait()
	for si, err := range errs {
		if err != nil {
			return ShardedApplyStats{}, fmt.Errorf("fragindex: shard %d: %w", si, err)
		}
	}
	for si, chs := range per {
		if len(chs) == 0 {
			continue
		}
		st := stats[si]
		out.Total.Inserted += st.Inserted
		out.Total.Removed += st.Removed
		out.Total.Updated += st.Updated
		out.Total.ClonedChunks += st.ClonedChunks
		out.Total.ClonedShards += st.ClonedShards
		out.Total.ClonedLists += st.ClonedLists
		out.Total.ClonedGroups += st.ClonedGroups
		if st.Epoch > out.Total.Epoch {
			out.Total.Epoch = st.Epoch
		}
		out.PerShard = append(out.PerShard, ShardApply{Shard: si, ApplyStats: st})
	}
	sl.deltas.Add(uint64(deltas))
	return out, nil
}

// checkStates checks, when changes touch more than one shard, every
// change against its shard's published state before any shard folds, in
// delta order per fragment (all of a fragment's changes route to one
// shard): an insert needs the fragment absent, an update or a removal
// needs it present, and an insert or update needs keyword counts the
// index admits. One shard needs no check: its own apply is transactional.
// The index has one logical writer, so the published state is the state
// each shard's apply starts from.
func (sl *ShardedLiveIndex) checkStates(per [][]crawl.FragmentChange) error {
	touched := 0
	for _, chs := range per {
		touched += min(len(chs), 1)
	}
	if touched < 2 {
		return nil
	}
	for si, chs := range per {
		if len(chs) == 0 {
			continue
		}
		snap := sl.shards[si].Snapshot()
		present := make(map[string]bool, len(chs)) // after this delta's earlier changes
		for _, ch := range chs {
			key := ch.ID.Key()
			has, seen := present[key]
			if !seen {
				has = snap.Has(ch.ID)
			}
			var err error
			switch ch.Op {
			case crawl.OpInsertFragment:
				if has {
					err = fmt.Errorf("%w: %s", ErrDupFragment, ch.ID)
				} else {
					err = checkTerms(ch.ID, ch.TermCounts, ch.TotalTerms)
				}
				has = true
			case crawl.OpUpdateFragment:
				if !has {
					err = fmt.Errorf("%w: %s", ErrNoFragment, ch.ID)
				} else {
					err = checkTerms(ch.ID, ch.TermCounts, ch.TotalTerms)
				}
			case crawl.OpRemoveFragment:
				if !has {
					err = fmt.Errorf("%w: %s", ErrNoFragment, ch.ID)
				}
				has = false
			default:
				err = fmt.Errorf("fragindex: unknown delta op %v", ch.Op)
			}
			if err != nil {
				return fmt.Errorf("fragindex: shard %d: applying %s %s: %w", si, ch.Op, ch.ID, err)
			}
			present[key] = has
		}
	}
	return nil
}

// CompactIfNeeded runs the snapshot garbage collector on every shard
// concurrently (see LiveIndex.CompactIfNeeded) and returns how many shards
// compacted. Shards decide independently — a removal-heavy shard compacts
// while its siblings keep serving their current lineages untouched. A
// cancelled ctx stops shards that have not started their rebuild yet.
func (sl *ShardedLiveIndex) CompactIfNeeded(ctx context.Context, maxDeadRatio float64) (int, error) {
	ran := make([]bool, len(sl.shards))
	errs := make([]error, len(sl.shards))
	var wg sync.WaitGroup
	for si, sh := range sl.shards {
		wg.Add(1)
		go func(si int, sh *LiveIndex) {
			defer wg.Done()
			ran[si], errs[si] = sh.CompactIfNeeded(ctx, maxDeadRatio)
		}(si, sh)
	}
	wg.Wait()
	n := 0
	for si, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("fragindex: shard %d: %w", si, err)
		}
		if ran[si] {
			n++
		}
	}
	return n, nil
}

// Stats reads every shard's current snapshot and maintenance counters, in
// shard order, plus the logical deltas routed through Apply/ApplyBatch
// that published somewhere — the count a single LiveIndex reports, while
// each row's DeltasApplied counts that shard's own applies (one per routed
// publish). Safe to call concurrently with searches and applies.
func (sl *ShardedLiveIndex) Stats() (perShard []LiveStats, deltas uint64) {
	perShard = make([]LiveStats, len(sl.shards))
	for i, sh := range sl.shards {
		perShard[i] = sh.Stats()
	}
	return perShard, sl.deltas.Load()
}
