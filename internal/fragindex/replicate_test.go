package fragindex

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/crawl"
	"repro/internal/fragment"
	"repro/internal/relation"
)

// replicaPair returns a live leader over the fooddb index and a live
// replica restored from the identical starting dump.
func replicaPair(t *testing.T) (*LiveIndex, *LiveIndex) {
	t.Helper()
	idx := fooddbIndex(t)
	clone, err := Restore(idx.Dump())
	if err != nil {
		t.Fatal(err)
	}
	return NewLive(idx), NewLive(clone)
}

func repID(g string, v int64) fragment.ID {
	return fragment.ID{relation.String(g), relation.Int(v)}
}

// TestApplyReplicatedMirrorsApply: replaying the leader's (delta, epoch)
// journal through ApplyReplicated converges the replica to the leader's
// exact logical state and epoch after every record.
func TestApplyReplicatedMirrorsApply(t *testing.T) {
	leader, replica := replicaPair(t)
	deltas := []crawl.Delta{
		{Changes: []crawl.FragmentChange{{Op: crawl.OpInsertFragment, ID: repID("Nordic", 3),
			TermCounts: map[string]int64{"herring": 2, "rye": 1}, TotalTerms: 3}}},
		{Changes: []crawl.FragmentChange{{Op: crawl.OpUpdateFragment, ID: repID("Nordic", 3),
			TermCounts: map[string]int64{"herring": 1, "dill": 4}, TotalTerms: 5}}},
		{Changes: []crawl.FragmentChange{{Op: crawl.OpRemoveFragment, ID: repID("Nordic", 3)}}},
		{Changes: []crawl.FragmentChange{
			{Op: crawl.OpInsertFragment, ID: repID("Baltic", 7),
				TermCounts: map[string]int64{"sprat": 1}, TotalTerms: 1},
			{Op: crawl.OpInsertFragment, ID: repID("Baltic", 8),
				TermCounts: map[string]int64{"sprat": 2, "smoke": 1}, TotalTerms: 3},
		}},
	}
	for i, d := range deltas {
		lst, err := leader.Apply(context.Background(), d)
		if err != nil {
			t.Fatal(err)
		}
		rst, err := replica.ApplyReplicated(context.Background(), d, lst.Epoch)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if rst.Epoch != lst.Epoch {
			t.Fatalf("record %d: replica epoch %d, leader %d", i, rst.Epoch, lst.Epoch)
		}
		ls, rs := leader.Snapshot(), replica.Snapshot()
		if ls.Epoch() != rs.Epoch() {
			t.Fatalf("record %d: snapshot epochs diverged %d vs %d", i, ls.Epoch(), rs.Epoch())
		}
		if !reflect.DeepEqual(logicalState(ls), logicalState(rs)) {
			t.Fatalf("record %d: logical state diverged", i)
		}
	}
}

// TestApplyReplicatedRejectsStale: a record at or below the published
// epoch — duplicate delivery after a tail reconnect — is refused with
// ErrStaleEpoch and changes nothing. The regression this pins: without
// the guard, a re-delivered insert after reconnect would double-apply.
func TestApplyReplicatedRejectsStale(t *testing.T) {
	_, replica := replicaPair(t)
	d := crawl.Delta{Changes: []crawl.FragmentChange{{Op: crawl.OpInsertFragment,
		ID: repID("Dup", 1), TermCounts: map[string]int64{"once": 1}, TotalTerms: 1}}}
	base := replica.Snapshot().Epoch()
	if _, err := replica.ApplyReplicated(context.Background(), d, base+1); err != nil {
		t.Fatal(err)
	}
	s1 := replica.Snapshot()
	state := logicalState(s1)

	// Exact duplicate: same record, same epoch.
	if _, err := replica.ApplyReplicated(context.Background(), d, base+1); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("duplicate record error = %v, want ErrStaleEpoch", err)
	}
	// Regression: an older epoch is equally refused.
	if _, err := replica.ApplyReplicated(context.Background(), d, base); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("stale record error = %v, want ErrStaleEpoch", err)
	}
	if replica.Snapshot() != s1 {
		t.Error("rejected record published a snapshot")
	}
	if !reflect.DeepEqual(logicalState(replica.Snapshot()), state) {
		t.Error("rejected record mutated state")
	}
}

// TestApplyReplicatedEmptyDeltaStampsEpoch: a record-free epoch advance
// (the leader compacted, which bumps its epoch without journaling a
// record) publishes a new snapshot at the stamped epoch with identical
// content — and must not mutate the previously published snapshot in
// place (readers may still hold it).
func TestApplyReplicatedEmptyDeltaStampsEpoch(t *testing.T) {
	_, replica := replicaPair(t)
	s0 := replica.Snapshot()
	e0 := s0.Epoch()
	state := logicalState(s0)

	if _, err := replica.ApplyReplicated(context.Background(), crawl.Delta{}, e0+5); err != nil {
		t.Fatal(err)
	}
	s1 := replica.Snapshot()
	if s1.Epoch() != e0+5 {
		t.Fatalf("stamped epoch = %d, want %d", s1.Epoch(), e0+5)
	}
	if s0.Epoch() != e0 {
		t.Fatalf("old published snapshot mutated in place: epoch %d", s0.Epoch())
	}
	if !reflect.DeepEqual(logicalState(s1), state) {
		t.Error("epoch stamp changed logical state")
	}
}

// TestApplyReplicatedFailureRollsBack: a record the fold cannot apply
// (removing a fragment that does not exist) errors without publishing —
// the snapshot and epoch stay put, so the caller can re-bootstrap.
func TestApplyReplicatedFailureRollsBack(t *testing.T) {
	_, replica := replicaPair(t)
	s0 := replica.Snapshot()
	bad := crawl.Delta{Changes: []crawl.FragmentChange{{Op: crawl.OpRemoveFragment, ID: repID("Ghost", 99)}}}
	if _, err := replica.ApplyReplicated(context.Background(), bad, s0.Epoch()+1); err == nil {
		t.Fatal("impossible record applied")
	}
	if replica.Snapshot() != s0 {
		t.Error("failed record published a snapshot")
	}
	// The replica still accepts the next good record at the same epoch.
	good := crawl.Delta{Changes: []crawl.FragmentChange{{Op: crawl.OpInsertFragment,
		ID: repID("Next", 1), TermCounts: map[string]int64{"ok": 1}, TotalTerms: 1}}}
	if _, err := replica.ApplyReplicated(context.Background(), good, s0.Epoch()+1); err != nil {
		t.Fatal(err)
	}
}

// TestResetTo: re-bootstrap swaps in a restored index wholesale when it
// is at or past the published epoch, and refuses to travel backwards.
func TestResetTo(t *testing.T) {
	leader, replica := replicaPair(t)
	// Advance the leader well past the replica.
	for i := 0; i < 4; i++ {
		d := crawl.Delta{Changes: []crawl.FragmentChange{{Op: crawl.OpInsertFragment,
			ID: repID("Adv", int64(i)), TermCounts: map[string]int64{"adv": 1}, TotalTerms: 1}}}
		if _, err := leader.Apply(context.Background(), d); err != nil {
			t.Fatal(err)
		}
	}
	fresh, err := Restore(leader.Dump())
	if err != nil {
		t.Fatal(err)
	}
	if err := replica.ResetTo(fresh); err != nil {
		t.Fatal(err)
	}
	ls, rs := leader.Snapshot(), replica.Snapshot()
	if ls.Epoch() != rs.Epoch() || !reflect.DeepEqual(logicalState(ls), logicalState(rs)) {
		t.Fatal("ResetTo did not converge to the leader state")
	}

	// Going backwards is refused: restore the original fooddb state (a
	// lower epoch) and try to reset to it.
	old, err := Restore(fooddbIndex(t).Dump())
	if err != nil {
		t.Fatal(err)
	}
	if err := replica.ResetTo(old); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("backwards reset error = %v, want ErrStaleEpoch", err)
	}
	if replica.Snapshot().Epoch() != ls.Epoch() {
		t.Error("failed reset moved the published snapshot")
	}
}
