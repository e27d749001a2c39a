package fragindex

import (
	"reflect"
	"testing"

	"repro/internal/fragment"
	"repro/internal/relation"
)

// TestIDFPrecomputed: IDF always equals 1/DF, through inserts, removals,
// and compactions, and is 0 for a keyword with no list — checkStats
// recounts both after every step, over keyword sets that gain, lose and
// swap keywords never drawn before.
func TestIDFPrecomputed(t *testing.T) {
	checkModel(t, modelConfig{name: "idf", trials: 2, steps: 30, corpus: 10, fresh: true, kinds: "iirdl"})
}

// TestCompactPostingsThreshold: a list accumulating tombstones is
// compacted in place once the dead ratio reaches the threshold, or dropped
// once none of it is live: checkStats holds every list under the
// threshold after every step, and a removal-only publish reports exactly
// the compactions the rule runs.
func TestCompactPostingsThreshold(t *testing.T) {
	checkModel(t, modelConfig{name: "threshold", trials: 3, steps: 30, corpus: 60, kinds: "rrri", ops: "pR",
		reach: []string{pathCompaction, pathDropped}})
}

// TestExplicitCompactPostings: the exported compaction hook reclaims
// tombstones eagerly below the automatic threshold.
func TestExplicitCompactPostings(t *testing.T) {
	spec := Spec{SelAttrs: []string{"g", "v"}, EqAttrs: []string{"g"}, RangeAttr: "v"}
	idx, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		id := fragment.ID{relation.String("g"), relation.Int(int64(i))}
		if _, err := idx.InsertFragment(id, map[string]int64{"w": 1}, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := idx.RemoveFragment(fragment.ID{relation.String("g"), relation.Int(3)}); err != nil {
		t.Fatal(err)
	}
	pl := idx.s.list("w")
	if pl.dead != 1 || pl.n != 10 {
		t.Fatalf("expected 1 sub-threshold tombstone, got dead=%d len=%d", pl.dead, pl.n)
	}
	idx.CompactPostings("w")
	if pl.dead != 0 || pl.n != 9 {
		t.Errorf("after CompactPostings: dead=%d len=%d, want 0/9", pl.dead, pl.n)
	}
	if idx.DF("w") != 9 {
		t.Errorf("DF = %d, want 9", idx.DF("w"))
	}
}

// TestPostingsIDFFiltersIntoCallerBuffer: a tombstoned list is filtered into
// the caller's buffer, which a repeat call reuses without allocating; a
// clean list is handed out by reference and leaves the buffer alone.
func TestPostingsIDFFiltersIntoCallerBuffer(t *testing.T) {
	spec := Spec{SelAttrs: []string{"g", "v"}, EqAttrs: []string{"g"}, RangeAttr: "v"}
	idx, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		id := fragment.ID{relation.String("g"), relation.Int(int64(i))}
		if _, err := idx.InsertFragment(id, map[string]int64{"w": int64(1 + i%3)}, 4); err != nil {
			t.Fatal(err)
		}
	}
	if err := idx.RemoveFragment(fragment.ID{relation.String("g"), relation.Int(3)}); err != nil {
		t.Fatal(err)
	}
	snap := idx.Snapshot()
	want := snap.Postings("w")
	if len(want) != 9 {
		t.Fatalf("%d live postings, want 9", len(want))
	}
	buf := make([]Posting, 2, 3) // too small, and not empty
	ps, idf := snap.PostingsIDF("w", &buf)
	if !reflect.DeepEqual(ps, want) || idf != snap.IDF("w") {
		t.Fatalf("PostingsIDF = %v, %v; want %v, %v", ps, idf, want, snap.IDF("w"))
	}
	if len(buf) != 9 || &buf[0] != &ps[0] {
		t.Fatalf("the filtered postings are not the caller's (grown) buffer")
	}
	if n := testing.AllocsPerRun(20, func() { ps, _ = snap.PostingsIDF("w", &buf) }); n != 0 {
		t.Errorf("a repeat call allocates %.0f times", n)
	}
	if !reflect.DeepEqual(ps, want) {
		t.Errorf("repeat call = %v, want %v", ps, want)
	}

	idx.CompactPostings("w")
	buf[0].TF = -1
	ps, _ = idx.Snapshot().PostingsIDF("w", &buf)
	if !reflect.DeepEqual(ps, want) || &ps[0] == &buf[0] || buf[0].TF != -1 {
		t.Errorf("a clean list must come back by reference, the buffer untouched")
	}
}

// TestKeywordsCacheInvalidation: the cached sorted Keywords slice is
// reused while the index is unmutated and refreshed after any mutation.
func TestKeywordsCacheInvalidation(t *testing.T) {
	idx := fooddbIndex(t)
	a := idx.Keywords()
	b := idx.Keywords()
	if len(a) == 0 || &a[0] != &b[0] {
		t.Error("unmutated Keywords() did not reuse the cache")
	}
	id := fragment.ID{relation.String("American"), relation.Int(99)}
	if _, err := idx.InsertFragment(id, map[string]int64{"zzznewword": 2}, 2); err != nil {
		t.Fatal(err)
	}
	c := idx.Keywords()
	found := false
	for _, kw := range c {
		if kw == "zzznewword" {
			found = true
		}
	}
	if !found {
		t.Error("Keywords() cache not invalidated by insert")
	}
	if err := idx.RemoveFragment(id); err != nil {
		t.Fatal(err)
	}
	d := idx.Keywords()
	if reflect.DeepEqual(c, d) {
		t.Error("Keywords() cache not invalidated by remove")
	}
	if !reflect.DeepEqual(a, d) {
		t.Error("insert+remove did not restore the original keyword set")
	}
}
