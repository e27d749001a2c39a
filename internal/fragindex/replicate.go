package fragindex

// Replica-side publishing. A read replica applies journal records tailed
// from a leader, so its epochs are dictated, not generated: each record
// carries the epoch the leader published at (mutation epochs skip numbers —
// a ten-change delta advances the counter ten times), and the replica must
// serve the identical epoch for the identical bytes. ApplyReplicated is
// Apply with the epoch stamped from the record instead of counted locally,
// plus the duplicate-delivery guard: a record at or below the published
// epoch is rejected with ErrStaleEpoch rather than double-applied —
// tail-reconnect replays the cursor record, and folding the same delta
// twice would corrupt the index (duplicate inserts, double-counted terms).

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/crawl"
)

// ErrStaleEpoch rejects a replicated record whose epoch is at or below the
// replica's published epoch — duplicate delivery, not new state.
var ErrStaleEpoch = errors.New("fragindex: replicated record epoch not past published epoch")

// ApplyReplicated folds a leader-journaled delta and publishes it at
// exactly the given epoch. Transactional like Apply. An empty delta with a
// newer epoch publishes an epoch-only advance (the leader's snapshot-GC
// compaction bumps its epoch without journaling a record, and the replica
// closes that gap when the tail reports a record-free durable advance).
//
// ApplyReplicated never runs the publish hook: replicas are not
// write-ahead leaders — durability stays with the leader they tail.
func (l *LiveIndex) ApplyReplicated(ctx context.Context, d crawl.Delta, epoch uint64) (ApplyStats, error) {
	ctx = orBackground(ctx)
	if err := ctx.Err(); err != nil {
		return ApplyStats{}, err
	}
	l.writeMu.Lock()
	defer l.writeMu.Unlock()
	published := l.cur.Load()
	if epoch <= published.epoch {
		return ApplyStats{Epoch: published.epoch},
			fmt.Errorf("%w: record epoch %d, published %d", ErrStaleEpoch, epoch, published.epoch)
	}
	if err := l.checkSpec(d.SelAttrs); err != nil {
		return ApplyStats{}, err
	}
	st := ApplyStats{Deltas: 1}
	for _, ch := range d.Changes {
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
	// Stamp the leader's epoch. beginWrite first: with an empty delta the
	// builder still shares the published snapshot struct, and the stamp
	// must never mutate a version readers already hold.
	l.builder.beginWrite()
	l.builder.SetEpoch(epoch)
	snap := l.builder.Freeze()
	st.Epoch = snap.epoch
	l.cur.Store(snap)
	l.deltas.Add(1)
	l.publishes.Add(1)
	l.inserted.Add(uint64(st.Inserted))
	l.removed.Add(uint64(st.Removed))
	l.updated.Add(uint64(st.Updated))
	return st, nil
}

// ResetTo replaces the serving state wholesale with a rebuilt index — the
// replica re-bootstrap path after its tail cursor fell off the leader's
// retained journal chain (ErrTailTruncated). The new index must be at or
// past the published epoch: a replica never moves a reader-visible epoch
// backwards. The posting-compaction threshold (SetPostingCompaction) is a
// setting of the serving index, so it carries over. Takes ownership of idx.
func (l *LiveIndex) ResetTo(idx *Index) error {
	l.writeMu.Lock()
	defer l.writeMu.Unlock()
	published := l.cur.Load()
	if e := idx.s.epoch; e < published.epoch {
		return fmt.Errorf("%w: reset to epoch %d behind published %d", ErrStaleEpoch, e, published.epoch)
	}
	idx.compactNum, idx.compactDen = l.builder.compactNum, l.builder.compactDen
	l.builder = idx
	l.cur.Store(idx.Freeze())
	l.publishes.Add(1)
	return nil
}
