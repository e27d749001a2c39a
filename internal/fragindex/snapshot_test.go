package fragindex

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/crawl"
	"repro/internal/fragment"
	"repro/internal/relation"
)

// TestFreezeIsolatesSnapshot: after Freeze, mutations through the builder
// never change what the frozen snapshot returns, and only touched posting
// lists are physically cloned — untouched lists stay shared by pointer.
func TestFreezeIsolatesSnapshot(t *testing.T) {
	idx := fooddbIndex(t)
	frozen := idx.Freeze()
	before := fingerprint(frozen)

	// "coffee" appears only in (American,9); "burger" elsewhere too. The
	// update touches burger/queen/10/4.3 lists but not coffee's.
	coffeeList := frozen.list("coffee")
	burgerBefore := frozen.list("burger")

	ten := refByName(t, idx, "(American,10)")
	m, _ := idx.Meta(ten)
	if err := idx.UpdateFragment(m.ID, map[string]int64{"burger": 5, "zzz": 1}, 6); err != nil {
		t.Fatal(err)
	}
	id2 := fragment.ID{relation.String("Nordic"), relation.Int(3)}
	if _, err := idx.InsertFragment(id2, map[string]int64{"herring": 2}, 2); err != nil {
		t.Fatal(err)
	}

	if fingerprint(frozen) != before {
		t.Fatal("frozen snapshot changed under builder mutations")
	}
	next := idx.Freeze()
	if next == frozen {
		t.Fatal("Freeze after mutations returned the old snapshot")
	}
	if next.DF("zzz") != 1 || next.DF("herring") != 1 {
		t.Errorf("new snapshot missing mutations: zzz DF=%d herring DF=%d", next.DF("zzz"), next.DF("herring"))
	}
	if frozen.DF("zzz") != 0 || frozen.Has(id2) {
		t.Error("old snapshot observed the mutations")
	}
	// Structural sharing: the untouched list is the same object in both
	// versions; the touched one is not.
	if next.list("coffee") != coffeeList {
		t.Error("untouched posting list was cloned")
	}
	if next.list("burger") == burgerBefore {
		t.Error("touched posting list is shared with the frozen snapshot")
	}
}

// liveFooddb builds a fooddb LiveIndex.
func liveFooddb(t *testing.T) *LiveIndex {
	t.Helper()
	return NewLive(fooddbIndex(t))
}

func updateDelta(id fragment.ID, counts map[string]int64, total int64) crawl.Delta {
	return crawl.Delta{Changes: []crawl.FragmentChange{{
		Op: crawl.OpUpdateFragment, ID: id, TermCounts: counts, TotalTerms: total,
	}}}
}

// TestLiveApplyPublishesAtomically: Apply swaps in a new version with the
// delta folded in; snapshots resolved before the swap are untouched.
func TestLiveApplyPublishesAtomically(t *testing.T) {
	l := liveFooddb(t)
	s0 := l.Snapshot()
	before := fingerprint(s0)

	id := fragment.ID{relation.String("American"), relation.Int(10)}
	st, err := l.Apply(context.Background(), updateDelta(id, map[string]int64{"burger": 1, "espresso": 4}, 5))
	if err != nil {
		t.Fatal(err)
	}
	if st.Updated != 1 || st.Inserted != 0 || st.Removed != 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.ClonedLists == 0 || st.ClonedShards == 0 {
		t.Errorf("expected copy-on-write clones, got %+v", st)
	}
	s1 := l.Snapshot()
	if s1 == s0 {
		t.Fatal("Apply did not publish a new snapshot")
	}
	if s1.DF("espresso") != 1 {
		t.Errorf("new snapshot espresso DF = %d, want 1", s1.DF("espresso"))
	}
	if fingerprint(s0) != before {
		t.Error("pre-apply snapshot changed")
	}
	stats := l.Stats()
	if stats.DeltasApplied != 1 || stats.Updated != 1 || stats.Epoch != s1.Epoch() {
		t.Errorf("live stats = %+v", stats)
	}
}

// TestLiveApplyTransactional: a delta failing mid-batch publishes nothing —
// the serving snapshot, the builder, and the counters are exactly as
// before the call.
func TestLiveApplyTransactional(t *testing.T) {
	l := liveFooddb(t)
	s0 := l.Snapshot()
	before := fingerprint(s0)

	d := crawl.Delta{Changes: []crawl.FragmentChange{
		{Op: crawl.OpInsertFragment, ID: fragment.ID{relation.String("Nordic"), relation.Int(1)},
			TermCounts: map[string]int64{"herring": 1}, TotalTerms: 1},
		// Fails: fragment does not exist.
		{Op: crawl.OpRemoveFragment, ID: fragment.ID{relation.String("Klingon"), relation.Int(7)}},
	}}
	if _, err := l.Apply(context.Background(), d); !errors.Is(err, ErrNoFragment) {
		t.Fatalf("err = %v, want ErrNoFragment", err)
	}
	if l.Snapshot() != s0 {
		t.Fatal("failed Apply published a snapshot")
	}
	if fingerprint(s0) != before {
		t.Error("failed Apply changed the serving snapshot")
	}
	if st := l.Stats(); st.DeltasApplied != 0 || st.Inserted != 0 {
		t.Errorf("failed Apply counted: %+v", st)
	}
	// The builder rolled back too: the half-applied insert is gone, and a
	// following good delta applies cleanly on the published state.
	st, err := l.Apply(context.Background(), updateDelta(fragment.ID{relation.String("Thai"), relation.Int(10)},
		map[string]int64{"thai": 2}, 2))
	if err != nil {
		t.Fatal(err)
	}
	if st.Updated != 1 {
		t.Errorf("post-rollback apply stats = %+v", st)
	}
	if l.Snapshot().Has(fragment.ID{relation.String("Nordic"), relation.Int(1)}) {
		t.Error("rolled-back insert leaked into a later snapshot")
	}
}

// TestLiveDeltaSpecMismatch: deltas over the wrong selection attributes are
// rejected before touching anything.
func TestLiveDeltaSpecMismatch(t *testing.T) {
	l := liveFooddb(t)
	d := crawl.Delta{SelAttrs: []string{"wrong", "attrs"}}
	if _, err := l.Apply(context.Background(), d); !errors.Is(err, ErrDeltaSpec) {
		t.Errorf("err = %v, want ErrDeltaSpec", err)
	}
}

// TestLiveCompactIfNeeded: once removals tombstone enough of the ref
// space, the GC publishes a compacted, renumbered snapshot; earlier
// snapshots keep serving their own contents.
func TestLiveCompactIfNeeded(t *testing.T) {
	spec := Spec{SelAttrs: []string{"g", "v"}, EqAttrs: []string{"g"}, RangeAttr: "v"}
	idx, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		id := fragment.ID{relation.String("g"), relation.Int(int64(i))}
		if _, err := idx.InsertFragment(id, map[string]int64{fmt.Sprintf("w%d", i): 1}, 1); err != nil {
			t.Fatal(err)
		}
	}
	l := NewLive(idx)
	if ran, _ := l.CompactIfNeeded(context.Background(), 0.5); ran {
		t.Fatal("compacted with zero tombstones")
	}
	var removes []crawl.FragmentChange
	for i := 0; i < n/2; i++ {
		removes = append(removes, crawl.FragmentChange{
			Op: crawl.OpRemoveFragment,
			ID: fragment.ID{relation.String("g"), relation.Int(int64(i))},
		})
	}
	if _, err := l.Apply(context.Background(), crawl.Delta{Changes: removes}); err != nil {
		t.Fatal(err)
	}
	tombstoned := l.Snapshot()
	if got := tombstoned.NumRefs() - tombstoned.NumFragments(); got != n/2 {
		t.Fatalf("tombstoned refs = %d, want %d", got, n/2)
	}
	epochBefore := tombstoned.Epoch()
	ran, err := l.CompactIfNeeded(context.Background(), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("compaction did not run at 50% tombstones")
	}
	s := l.Snapshot()
	if s.NumRefs() != n/2 || s.NumFragments() != n/2 {
		t.Errorf("compacted refs/fragments = %d/%d, want %d/%d", s.NumRefs(), s.NumFragments(), n/2, n/2)
	}
	if s.Epoch() <= epochBefore {
		t.Errorf("epoch went backwards: %d -> %d", epochBefore, s.Epoch())
	}
	if tombstoned.NumRefs() != n {
		t.Error("pre-compaction snapshot was disturbed")
	}
	if st := l.Stats(); st.Compactions != 1 {
		t.Errorf("compactions = %d, want 1", st.Compactions)
	}
	// Still serving the right content.
	for i := n / 2; i < n; i++ {
		if !s.Has(fragment.ID{relation.String("g"), relation.Int(int64(i))}) {
			t.Errorf("compacted snapshot lost fragment %d", i)
		}
	}
}

// TestLiveConcurrentReadersAndWriter hammers the raw LiveIndex read path
// from many goroutines while a writer applies deltas and compactions (run
// under -race in CI): every read must see internally consistent state —
// DF agreeing with Postings, counters agreeing with the keyword set.
func TestLiveConcurrentReadersAndWriter(t *testing.T) {
	l := liveFooddb(t)
	const readers = 16
	const writes = 200
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errc := make(chan error, readers)

	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := l.Snapshot()
				for _, kw := range s.Keywords() {
					ps := s.Postings(kw)
					if len(ps) != s.DF(kw) {
						errc <- fmt.Errorf("%q: %d postings vs DF %d on one snapshot", kw, len(ps), s.DF(kw))
						return
					}
					for _, p := range ps {
						if !s.AliveRef(p.Frag) {
							errc <- fmt.Errorf("%q: dead ref %d in postings", kw, p.Frag)
							return
						}
						if _, _, err := s.GroupMembers(p.Frag); err != nil {
							errc <- err
							return
						}
					}
				}
			}
		}()
	}

	id := fragment.ID{relation.String("American"), relation.Int(10)}
	extra := fragment.ID{relation.String("Fusion"), relation.Int(42)}
	for i := 0; i < writes; i++ {
		kw := fmt.Sprintf("special%d", i%7)
		if _, err := l.Apply(context.Background(), updateDelta(id, map[string]int64{"burger": 2, kw: 1}, 3)); err != nil {
			t.Fatal(err)
		}
		switch i % 4 {
		case 0:
			d := crawl.Delta{Changes: []crawl.FragmentChange{{
				Op: crawl.OpInsertFragment, ID: extra,
				TermCounts: map[string]int64{"fusion": 1}, TotalTerms: 1,
			}}}
			if _, err := l.Apply(context.Background(), d); err != nil {
				t.Fatal(err)
			}
		case 2:
			d := crawl.Delta{Changes: []crawl.FragmentChange{{
				Op: crawl.OpRemoveFragment, ID: extra,
			}}}
			if _, err := l.Apply(context.Background(), d); err != nil {
				t.Fatal(err)
			}
			if _, err := l.CompactIfNeeded(context.Background(), 0.3); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// sameMap reports whether two maps are one map (not merely equal ones).
func sameMap(a, b map[string]relation.Value) bool {
	return reflect.ValueOf(a).Pointer() == reflect.ValueOf(b).Pointer()
}

// TestEqValuesSharedPerGroup: EqValues hands out the equality group's own
// map — one map for every member of a group and for every snapshot version
// the group lives through, including the copy-on-write clone a mutation
// makes of it and a member tombstoned along the way — and an index rebuilt
// by compaction carries equal values on maps of its own.
func TestEqValuesSharedPerGroup(t *testing.T) {
	idx := fooddbIndex(t)
	nine, twelve := refByName(t, idx, "(American,9)"), refByName(t, idx, "(American,12)")
	frozen := idx.Freeze()
	eq9, err := frozen.EqValues(nine)
	if err != nil {
		t.Fatal(err)
	}
	eq12, err := frozen.EqValues(twelve)
	if err != nil {
		t.Fatal(err)
	}
	if !sameMap(eq9, eq12) {
		t.Error("two members of one equality group got two maps")
	}
	thai, err := frozen.EqValues(refByName(t, idx, "(Thai,10)"))
	if err != nil {
		t.Fatal(err)
	}
	if sameMap(eq9, thai) || !thai["cuisine"].Equal(relation.String("Thai")) {
		t.Errorf("another group's values = %v", thai)
	}

	// Mutate the American group after the freeze: the builder clones the
	// group, the clone keeps the map, and the removed member still answers.
	m, _ := idx.Meta(twelve)
	if err := idx.RemoveFragment(m.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := idx.InsertFragment(fragment.ID{relation.String("American"), relation.Int(40)}, map[string]int64{"burger": 1}, 1); err != nil {
		t.Fatal(err)
	}
	next := idx.Freeze()
	for _, ref := range []FragRef{nine, twelve, refByName(t, idx, "(American,40)")} {
		eq, err := next.EqValues(ref)
		if err != nil {
			t.Fatal(err)
		}
		if !sameMap(eq, eq9) {
			t.Errorf("ref %d: the group's map was rebuilt across a copy-on-write clone", ref)
		}
	}
	if _, err := next.EqValues(FragRef(next.NumRefs())); !errors.Is(err, ErrNoFragment) {
		t.Errorf("out-of-range ref: err %v, want ErrNoFragment", err)
	}

	compacted, err := idx.Compact()
	if err != nil {
		t.Fatal(err)
	}
	a, err := compacted.EqValues(refByName(t, compacted, "(American,9)"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := compacted.EqValues(refByName(t, compacted, "(American,40)"))
	if err != nil {
		t.Fatal(err)
	}
	if !sameMap(a, b) || !reflect.DeepEqual(a, eq9) {
		t.Errorf("compacted index: group values %v / %v, want one map equal to %v", a, b, eq9)
	}
}
