package fragindex

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/crawl"
)

// orBackground tolerates a nil context at the API boundary so a forgotten
// ctx degrades to "not cancellable" instead of a panic mid-apply.
func orBackground(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}

// LiveIndex serves an index that keeps absorbing database changes while
// queries run against it — the epoch-swap scheme behind Dash's online
// index maintenance.
//
// Readers call Snapshot (one atomic load) and run the entire search read
// path against the returned immutable version, never blocking on or being
// torn by writers. A single-writer apply loop folds each Delta into the
// next version through the builder's copy-on-write machinery — only the
// metadata chunks, posting-list shards, lists, and groups the delta
// touches are cloned; the rest is shared with every published snapshot —
// and publishes it with one atomic pointer swap.
//
// Publishing has a fixed floor (the snapshot struct and its pointer
// tables), so the cheapest way to absorb a stream of small deltas is to
// batch them: ApplyBatch coalesces any number of deltas into one
// freeze-and-swap, so N single-change deltas pay one publish instead
// of N.
//
// Apply and ApplyBatch are transactional: a delta that fails part-way
// (duplicate insert, removal of a missing fragment) publishes nothing, and
// the serving snapshot is exactly what it was before the call.
//
// Any number of goroutines may call Snapshot and Stats concurrently with
// each other and with the writer. Apply, ApplyBatch, ApplyReplicated and
// CompactIfNeeded serialize among themselves internally, but the index is
// designed for one logical writer: concurrent writers make per-delta
// validation (insert vs update) racy at the application level even though
// the structure stays consistent.
type LiveIndex struct {
	writeMu sync.Mutex // serializes Apply / ApplyBatch / CompactIfNeeded
	builder *Index     // writer-side copy-on-write builder
	cur     atomic.Pointer[Snapshot]

	// hook, when set, runs between a successful fold and the atomic
	// publish swap (see SetPublishHook) — the durable layer's write-ahead
	// seam.
	hook PublishHook

	deltas      atomic.Uint64
	publishes   atomic.Uint64
	inserted    atomic.Uint64
	removed     atomic.Uint64
	updated     atomic.Uint64
	compactions atomic.Uint64
}

// NewLive wraps a built index for online serving, publishing its current
// state as the first snapshot. NewLive takes ownership of idx: the caller
// must not mutate or read it afterwards — all access goes through the
// LiveIndex.
func NewLive(idx *Index) *LiveIndex {
	l := &LiveIndex{builder: idx}
	l.cur.Store(idx.Freeze())
	return l
}

// Snapshot returns the current published version: one atomic load, no
// locks. The result is immutable — a request that resolves it once
// observes a perfectly stable index for its whole lifetime, regardless of
// concurrent Apply calls.
func (l *LiveIndex) Snapshot() *Snapshot { return l.cur.Load() }

// PublishHook runs after a delta has folded successfully and before the
// snapshot swap that makes it visible: d holds the folded (coalesced)
// changes the publish applies, and epoch the epoch the new snapshot will
// report. Returning an error aborts the publish — the builder rolls back
// and the serving snapshot is unchanged, exactly as if the fold itself had
// failed. This is the write-ahead discipline the durable layer hangs off:
// journal the delta (and fsync it) in the hook, and no acknowledged publish
// can exist that the journal does not record. The ctx is the publishing
// Apply's context, so the write-ahead I/O inherits the caller's deadline
// (ctx-first serving-path contract, enforced by dashvet's ctxfirst).
type PublishHook func(ctx context.Context, d crawl.Delta, epoch uint64) error

// SetPublishHook installs (or, with nil, removes) the pre-publish hook. It
// serializes with the writer, so it may be called while the index is
// serving; publishes already past their fold observe the previous hook.
// Snapshot-GC compactions (CompactIfNeeded) do not run the hook: they
// renumber refs but change no logical state, so a delta journal stays
// complete without a record of them.
func (l *LiveIndex) SetPublishHook(fn PublishHook) {
	l.writeMu.Lock()
	defer l.writeMu.Unlock()
	l.hook = fn
}

// Dump captures the serving index's current logical state in canonical form
// (see Index.Dump), cut from the latest published snapshot without taking
// the writer's lock: the dump is exactly a state the index acknowledged,
// never a half-applied delta, and a publish in flight — folded, even
// journaled by its publish hook, but not yet swapped in — neither waits
// for the dump nor shows up in it.
func (l *LiveIndex) Dump() *Dump { return l.cur.Load().dump(nil) }

// ApplyStats reports what one publish did and what it physically cost.
type ApplyStats struct {
	// Deltas is how many deltas were folded into this publish (1 for
	// Apply; the batch size for ApplyBatch).
	Deltas   int `json:"deltas"`
	Inserted int `json:"inserted"`
	Removed  int `json:"removed"`
	Updated  int `json:"updated"`
	// Epoch is the published snapshot's mutation epoch.
	Epoch uint64 `json:"epoch"`
	// ClonedChunks/ClonedShards/ClonedLists/ClonedGroups count the
	// copy-on-write work the publish caused: fragment-metadata chunks,
	// posting-directory shards, posting lists whose block directory was
	// copied, and equality groups cloned for the new version. A list's
	// directory copy is one slice header per block, and it copies only the
	// blocks it writes, ≈ 128 postings each. A tombstone clones only its
	// list's small header and keeps sharing the directory and blocks, so it
	// does not count as a cloned list. Everything else is shared with the
	// previous snapshot, so these four numbers — not the index size — are
	// the publish cost.
	ClonedChunks int `json:"cloned_chunks"`
	ClonedShards int `json:"cloned_shards"`
	ClonedLists  int `json:"cloned_lists"`
	ClonedGroups int `json:"cloned_groups"`
}

// checkSpec rejects deltas whose selection attributes disagree with the
// index spec. Empty SelAttrs skips the check.
func (l *LiveIndex) checkSpec(selAttrs []string) error {
	if len(selAttrs) > 0 && !slices.Equal(selAttrs, l.builder.s.spec.SelAttrs) {
		return fmt.Errorf("%w: delta %v, index %v",
			ErrDeltaSpec, selAttrs, l.builder.s.spec.SelAttrs)
	}
	return nil
}

// Apply folds a delta into the index and publishes the result as the new
// serving snapshot with one atomic swap. On error nothing is published and
// the serving snapshot is unchanged (the failed build is discarded in
// constant time). An empty delta is a no-op: it publishes nothing, clones
// nothing, and returns the current epoch.
//
// Cancelling ctx is an error like any other: a cancellation observed
// before or during the fold rolls the builder back and publishes nothing,
// returning ctx.Err(). A delta is never partially visible — the atomic
// swap is all-or-nothing regardless of when the cancellation lands.
func (l *LiveIndex) Apply(ctx context.Context, d crawl.Delta) (ApplyStats, error) {
	ctx = orBackground(ctx)
	if err := ctx.Err(); err != nil {
		return ApplyStats{}, err
	}
	l.writeMu.Lock()
	defer l.writeMu.Unlock()
	if err := l.checkSpec(d.SelAttrs); err != nil {
		return ApplyStats{}, err
	}
	if len(d.Changes) == 0 {
		return ApplyStats{Epoch: l.cur.Load().epoch}, nil
	}
	return l.applyLocked(ctx, d.SelAttrs, d.Changes, 1, 0)
}

// ApplyBatch coalesces a sequence of deltas (crawl.Coalesce) and publishes
// the net effect as one snapshot — one freeze-and-swap for the whole
// batch, so N buffered single-change deltas cost one publish instead of N.
// Transactional like Apply: on any error (spec mismatch, conflicting
// changes, a change that cannot apply) nothing is published. A batch whose
// net effect is empty — no deltas, or every change cancelled out — is a
// no-op returning the current epoch.
func (l *LiveIndex) ApplyBatch(ctx context.Context, ds []crawl.Delta) (ApplyStats, error) {
	ctx = orBackground(ctx)
	if err := ctx.Err(); err != nil {
		return ApplyStats{}, err
	}
	l.writeMu.Lock()
	defer l.writeMu.Unlock()
	for _, d := range ds {
		if err := l.checkSpec(d.SelAttrs); err != nil {
			return ApplyStats{}, err
		}
	}
	folded, err := crawl.Coalesce(ds)
	if err != nil {
		return ApplyStats{}, err
	}
	if len(folded.Changes) == 0 {
		return ApplyStats{Deltas: len(ds), Epoch: l.cur.Load().epoch}, nil
	}
	return l.applyLocked(ctx, folded.SelAttrs, folded.Changes, len(ds), 0)
}

// applyLocked folds changes into the next version and publishes it.
// Caller holds writeMu. With stamp 0 the publish takes the builder's own
// mutation epoch and runs the publish hook (Apply, ApplyBatch: changes is
// non-empty); a replicated record passes the leader's epoch as stamp,
// which the new snapshot carries instead, and skips the hook. A
// cancellation observed between changes rolls back and publishes nothing;
// so does a publish-hook failure after the fold.
func (l *LiveIndex) applyLocked(ctx context.Context, selAttrs []string, changes []crawl.FragmentChange, deltas int, stamp uint64) (ApplyStats, error) {
	published := l.cur.Load()
	st := ApplyStats{Deltas: deltas}
	for _, ch := range changes {
		if err := ctx.Err(); err != nil {
			l.builder.discardTo(published)
			return ApplyStats{}, err
		}
		var err error
		switch ch.Op {
		case crawl.OpInsertFragment:
			_, err = l.builder.InsertFragment(ch.ID, ch.TermCounts, ch.TotalTerms)
			st.Inserted++
		case crawl.OpRemoveFragment:
			err = l.builder.RemoveFragment(ch.ID)
			st.Removed++
		case crawl.OpUpdateFragment:
			err = l.builder.UpdateFragment(ch.ID, ch.TermCounts, ch.TotalTerms)
			st.Updated++
		default:
			err = fmt.Errorf("fragindex: unknown delta op %v", ch.Op)
		}
		if err != nil {
			l.builder.discardTo(published)
			return ApplyStats{}, fmt.Errorf("applying %s %s: %w", ch.Op, ch.ID, err)
		}
	}
	st.ClonedChunks, st.ClonedShards, st.ClonedLists, st.ClonedGroups = l.builder.pendingClones()
	if stamp > 0 {
		// beginWrite first: with an empty delta the builder still shares
		// the published snapshot struct, and the stamp must never mutate a
		// version readers already hold.
		l.builder.beginWrite()
		l.builder.SetEpoch(stamp)
	}
	snap := l.builder.Freeze()
	st.Epoch = snap.epoch
	if l.hook != nil && stamp == 0 {
		// Write-ahead: the journal record must be durable before the swap
		// makes the publish visible (and acknowledgeable). A hook failure
		// aborts the publish — the frozen-but-unpublished snapshot is
		// abandoned and the builder resumes from the serving version.
		if err := l.hook(ctx, crawl.Delta{SelAttrs: selAttrs, Changes: changes}, snap.epoch); err != nil {
			l.builder.discardTo(published)
			return ApplyStats{}, fmt.Errorf("fragindex: publish hook: %w", err)
		}
	}
	l.cur.Store(snap)
	l.deltas.Add(uint64(deltas))
	l.publishes.Add(1)
	l.inserted.Add(uint64(st.Inserted))
	l.removed.Add(uint64(st.Removed))
	l.updated.Add(uint64(st.Updated))
	return st, nil
}

// CompactIfNeeded is the snapshot garbage collector: removals leave
// tombstoned refs in the fragment metadata of every later version, and
// once their share of the ref space reaches maxDeadRatio the index is
// rebuilt without them and published as a fresh snapshot lineage (refs are
// renumbered; FragRefs are only meaningful within one snapshot anyway).
// Previously published snapshots stay valid for the readers still holding
// them and are reclaimed by the runtime once released. Returns whether a
// compaction ran. The ctx is checked before the rebuild starts — a
// compaction is one indivisible reconstruction, so a cancellation landing
// mid-rebuild is observed at the next call instead.
func (l *LiveIndex) CompactIfNeeded(ctx context.Context, maxDeadRatio float64) (bool, error) {
	if err := orBackground(ctx).Err(); err != nil {
		return false, err
	}
	l.writeMu.Lock()
	defer l.writeMu.Unlock()
	refs := l.builder.NumRefs()
	dead := refs - l.builder.NumFragments()
	if refs == 0 || float64(dead)/float64(refs) < maxDeadRatio {
		return false, nil
	}
	compacted, err := l.builder.Compact()
	if err != nil {
		return false, err
	}
	// Keep the epoch monotone across the rebuild so stats and kwCache
	// stamps never move backwards.
	compacted.s.epoch = l.builder.s.epoch + 1
	l.builder = compacted
	l.cur.Store(l.builder.Freeze())
	l.compactions.Add(1)
	return true, nil
}

// LiveStats is a point-in-time summary of the serving index and its
// maintenance history.
type LiveStats struct {
	Epoch          uint64  `json:"epoch"`
	Fragments      int     `json:"fragments"`
	Keywords       int     `json:"keywords"`
	TombstonedRefs int     `json:"tombstoned_refs"`
	AvgTerms       float64 `json:"avg_terms_per_fragment"`
	DeltasApplied  uint64  `json:"deltas_applied"`
	// Publishes counts snapshot swaps; with batching it lags
	// DeltasApplied by the deltas amortized per publish.
	Publishes   uint64 `json:"publishes"`
	Inserted    uint64 `json:"fragments_inserted"`
	Removed     uint64 `json:"fragments_removed"`
	Updated     uint64 `json:"fragments_updated"`
	Compactions uint64 `json:"compactions"`
}

// Stats reads the current snapshot and the maintenance counters. Safe to
// call concurrently with searches and Apply.
func (l *LiveIndex) Stats() LiveStats {
	s := l.Snapshot()
	return LiveStats{
		Epoch:          s.Epoch(),
		Fragments:      s.NumFragments(),
		Keywords:       s.NumKeywords(),
		TombstonedRefs: s.NumRefs() - s.NumFragments(),
		AvgTerms:       s.AvgTermsPerFragment(),
		DeltasApplied:  l.deltas.Load(),
		Publishes:      l.publishes.Load(),
		Inserted:       l.inserted.Load(),
		Removed:        l.removed.Load(),
		Updated:        l.updated.Load(),
		Compactions:    l.compactions.Load(),
	}
}
