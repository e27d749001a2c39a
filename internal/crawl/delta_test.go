package crawl

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/fooddb"
	"repro/internal/fragment"
	"repro/internal/psj"
	"repro/internal/relation"
)

func boundFooddb(t *testing.T) (*relation.Database, *psj.Bound) {
	t.Helper()
	db := fooddb.New()
	b, err := psj.Bind(psj.MustParse(fooddb.SearchSQL), db)
	if err != nil {
		t.Fatal(err)
	}
	return db, b
}

// TestRecrawlMissingPartition: an identifier selecting no rows reports
// exists=false.
func TestRecrawlMissingPartition(t *testing.T) {
	db, b := boundFooddb(t)
	_, _, exists, err := RecrawlFragment(db, b,
		fragment.ID{relation.String("Klingon"), relation.Int(7)})
	if err != nil {
		t.Fatal(err)
	}
	if exists {
		t.Error("empty partition reported as existing")
	}
}

// TestDeriveDeltaClassifies drives all four cases: a changed partition the
// index knows (update), a new partition (insert), a vanished partition the
// index still holds (remove), and an unknown empty partition (no-op).
func TestDeriveDeltaClassifies(t *testing.T) {
	db, b := boundFooddb(t)
	// A new restaurant opens a (American, 25) partition the index has
	// never seen, and a comment lands on Bond's Cafe (American, 9).
	restaurant, err := db.Table("restaurant")
	if err != nil {
		t.Fatal(err)
	}
	err = restaurant.Append(relation.Row{
		relation.Int(8), relation.String("Deluxe Diner"), relation.String("American"),
		relation.Int(25), relation.Float(4.9),
	})
	if err != nil {
		t.Fatal(err)
	}
	comments, err := db.Table("comment")
	if err != nil {
		t.Fatal(err)
	}
	err = comments.Append(relation.Row{
		relation.Int(207), relation.Int(7), relation.Int(120),
		relation.String("Great froyo"), relation.String("03/12"),
	})
	if err != nil {
		t.Fatal(err)
	}

	updated := fragment.ID{relation.String("American"), relation.Int(9)}
	inserted := fragment.ID{relation.String("American"), relation.Int(25)}
	removed := fragment.ID{relation.String("Mythical"), relation.Int(1)} // index-known, db-empty
	noop := fragment.ID{relation.String("Klingon"), relation.Int(7)}

	have := func(id fragment.ID) bool {
		return id.Key() == updated.Key() || id.Key() == removed.Key()
	}
	d, err := DeriveDelta(context.Background(), db, b, []fragment.ID{updated, inserted, removed, noop}, have)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d.SelAttrs, b.SelAttrs) {
		t.Errorf("delta SelAttrs = %v", d.SelAttrs)
	}
	if len(d.Changes) != 3 {
		t.Fatalf("changes = %d, want 3 (no-op dropped): %+v", len(d.Changes), d.Changes)
	}
	ops := map[string]ChangeOp{}
	for _, ch := range d.Changes {
		ops[ch.ID.Key()] = ch.Op
		if ch.Op != OpRemoveFragment {
			if ch.TotalTerms <= 0 || len(ch.TermCounts) == 0 {
				t.Errorf("%s %s carries no statistics", ch.Op, ch.ID)
			}
		} else if ch.TermCounts != nil || ch.TotalTerms != 0 {
			t.Errorf("remove %s carries statistics", ch.ID)
		}
	}
	if ops[updated.Key()] != OpUpdateFragment {
		t.Errorf("updated partition classified as %v", ops[updated.Key()])
	}
	if ops[inserted.Key()] != OpInsertFragment {
		t.Errorf("new partition classified as %v", ops[inserted.Key()])
	}
	if ops[removed.Key()] != OpRemoveFragment {
		t.Errorf("vanished partition classified as %v", ops[removed.Key()])
	}
	// The update's statistics include the new comment's keyword.
	for _, ch := range d.Changes {
		if ch.ID.Key() == updated.Key() && ch.TermCounts["froyo"] != 1 {
			t.Errorf("update misses the new comment: %v", ch.TermCounts)
		}
	}
}

// delta test helpers: one-change deltas over a synthetic (g, v) id space.
func deltaID(g string, v int64) fragment.ID {
	return fragment.ID{relation.String(g), relation.Int(v)}
}

func ins(id fragment.ID, terms map[string]int64, total int64) Delta {
	return Delta{Changes: []FragmentChange{{Op: OpInsertFragment, ID: id, TermCounts: terms, TotalTerms: total}}}
}

func upd(id fragment.ID, terms map[string]int64, total int64) Delta {
	return Delta{Changes: []FragmentChange{{Op: OpUpdateFragment, ID: id, TermCounts: terms, TotalTerms: total}}}
}

func rem(id fragment.ID) Delta {
	return Delta{Changes: []FragmentChange{{Op: OpRemoveFragment, ID: id}}}
}

// TestCoalesceFolds exercises every legal folding rule: the net delta
// carries at most one change per identifier and the same end state as
// applying the sequence one by one.
func TestCoalesceFolds(t *testing.T) {
	a, b, c, d, e := deltaID("g", 1), deltaID("g", 2), deltaID("g", 3), deltaID("g", 4), deltaID("g", 5)
	got, err := Coalesce([]Delta{
		ins(a, map[string]int64{"old": 1}, 1),  // insert+update → insert(new)
		upd(a, map[string]int64{"new": 2}, 2),  //
		ins(b, map[string]int64{"gone": 1}, 1), // insert+remove → cancelled
		rem(b),                                 //
		upd(c, map[string]int64{"v1": 1}, 1),   // update+update → last update
		upd(c, map[string]int64{"v2": 3}, 3),   //
		upd(d, map[string]int64{"x": 1}, 1),    // update+remove → remove
		rem(d),                                 //
		rem(e),                                 // remove+insert → update
		ins(e, map[string]int64{"re": 4}, 4),   //
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]FragmentChange{
		a.Key(): {Op: OpInsertFragment, ID: a, TermCounts: map[string]int64{"new": 2}, TotalTerms: 2},
		c.Key(): {Op: OpUpdateFragment, ID: c, TermCounts: map[string]int64{"v2": 3}, TotalTerms: 3},
		d.Key(): {Op: OpRemoveFragment, ID: d},
		e.Key(): {Op: OpUpdateFragment, ID: e, TermCounts: map[string]int64{"re": 4}, TotalTerms: 4},
	}
	if len(got.Changes) != len(want) {
		t.Fatalf("coalesced to %d changes, want %d: %+v", len(got.Changes), len(want), got.Changes)
	}
	for _, ch := range got.Changes {
		w, ok := want[ch.ID.Key()]
		if !ok {
			t.Errorf("unexpected change for %s (cancelled id leaked?)", ch.ID)
			continue
		}
		if !reflect.DeepEqual(ch, w) {
			t.Errorf("change for %s = %+v, want %+v", ch.ID, ch, w)
		}
	}
}

// TestCoalesceCancelThenReinsert: an insert annihilated by a remove may be
// re-inserted later in the batch; the net effect is a plain insert.
func TestCoalesceCancelThenReinsert(t *testing.T) {
	a := deltaID("g", 1)
	got, err := Coalesce([]Delta{
		ins(a, map[string]int64{"v1": 1}, 1),
		rem(a),
		ins(a, map[string]int64{"v2": 2}, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Changes) != 1 {
		t.Fatalf("changes = %+v, want one insert", got.Changes)
	}
	ch := got.Changes[0]
	if ch.Op != OpInsertFragment || ch.TermCounts["v2"] != 2 {
		t.Errorf("net change = %+v, want insert with v2 stats", ch)
	}
}

// TestCoalesceConflicts: sequences that could not have applied cleanly one
// by one are rejected instead of silently masked.
func TestCoalesceConflicts(t *testing.T) {
	a := deltaID("g", 1)
	stats := map[string]int64{"w": 1}
	for name, ds := range map[string][]Delta{
		"insert+insert": {ins(a, stats, 1), ins(a, stats, 1)},
		"update+insert": {upd(a, stats, 1), ins(a, stats, 1)},
		"remove+remove": {rem(a), rem(a)},
		"remove+update": {rem(a), upd(a, stats, 1)},
		// A cancelled insert leaves the fragment absent mid-batch: only a
		// re-insert may follow; update/remove are the sequential failures
		// the cancellation must not mask.
		"cancel+remove": {ins(a, stats, 1), rem(a), rem(a)},
		"cancel+update": {ins(a, stats, 1), rem(a), upd(a, stats, 1)},
	} {
		if _, err := Coalesce(ds); !errors.Is(err, ErrCoalesce) {
			t.Errorf("%s: err = %v, want ErrCoalesce", name, err)
		}
	}
}

// TestCoalesceSelAttrs: the folded delta carries the first non-empty
// attribute set; disagreeing sets are rejected.
func TestCoalesceSelAttrs(t *testing.T) {
	a := deltaID("g", 1)
	d1 := upd(a, map[string]int64{"w": 1}, 1)
	d2 := upd(deltaID("g", 2), map[string]int64{"w": 1}, 1)
	d2.SelAttrs = []string{"cuisine", "budget"}
	got, err := Coalesce([]Delta{d1, d2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.SelAttrs, d2.SelAttrs) {
		t.Errorf("SelAttrs = %v, want %v", got.SelAttrs, d2.SelAttrs)
	}
	d3 := rem(deltaID("g", 3))
	d3.SelAttrs = []string{"other"}
	if _, err := Coalesce([]Delta{d2, d3}); !errors.Is(err, ErrCoalesceSpec) {
		t.Errorf("disagreeing SelAttrs: err = %v, want ErrCoalesceSpec", err)
	}
	if empty, err := Coalesce(nil); err != nil || len(empty.Changes) != 0 {
		t.Errorf("Coalesce(nil) = %+v, %v", empty, err)
	}
}

// TestPinParamsErrors: arity mismatches are rejected.
func TestPinParamsErrors(t *testing.T) {
	_, b := boundFooddb(t)
	if _, err := PinParams(b, fragment.ID{relation.String("American")}); !errors.Is(err, ErrPinArity) {
		t.Errorf("arity err = %v", err)
	}
	params, err := PinParams(b, fragment.ID{relation.String("American"), relation.Int(9)})
	if err != nil {
		t.Fatal(err)
	}
	// cuisine pins $cuisine; budget pins both $min and $max.
	want := map[string]relation.Value{
		"cuisine": relation.String("American"),
		"min":     relation.Int(9),
		"max":     relation.Int(9),
	}
	if !reflect.DeepEqual(params, want) {
		t.Errorf("params = %v, want %v", params, want)
	}
}
