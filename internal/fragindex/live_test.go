package fragindex

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/fragment"
	"repro/internal/relation"
)

// brute recomputes the O(1) statistics the hard way, straight from the
// underlying structures, for cross-checking the maintained counters.
func brute(idx *Index) (frags int, terms int64, kws int) {
	for ref := 0; ref < idx.s.numRefs; ref++ {
		if m := idx.s.metaAt(FragRef(ref)); m.Alive {
			frags++
			terms += m.Terms
		}
	}
	idx.s.eachList(func(_ string, pl *postingList) {
		live := 0
		for _, p := range pl.ps {
			if idx.s.aliveAt(p.Frag) {
				live++
			}
		}
		if live != pl.liveDF() {
			panic(fmt.Sprintf("dead counter drifted: %d live vs liveDF %d", live, pl.liveDF()))
		}
		if live > 0 {
			kws++
		}
	})
	return
}

// TestLiveCountersTrackMutations drives a random insert/remove sequence
// and asserts NumFragments, AvgTermsPerFragment, and NumKeywords — now
// counter-backed — always agree with a brute-force recount.
func TestLiveCountersTrackMutations(t *testing.T) {
	spec := Spec{SelAttrs: []string{"g", "v"}, EqAttrs: []string{"g"}, RangeAttr: "v"}
	for trial := 0; trial < 10; trial++ {
		r := rand.New(rand.NewSource(int64(trial)))
		idx, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		live := make(map[string]fragment.ID)
		for step := 0; step < 150; step++ {
			id := fragment.ID{
				relation.String(fmt.Sprintf("g%d", r.Intn(3))),
				relation.Int(int64(r.Intn(12))),
			}
			key := id.Key()
			if _, ok := live[key]; ok && r.Intn(2) == 0 {
				if err := idx.RemoveFragment(id); err != nil {
					t.Fatal(err)
				}
				delete(live, key)
			} else if _, ok := live[key]; !ok {
				counts := map[string]int64{
					fmt.Sprintf("w%d", r.Intn(6)): int64(1 + r.Intn(3)),
					fmt.Sprintf("w%d", r.Intn(6)): 1,
				}
				var total int64
				for _, tf := range counts {
					total += tf
				}
				if _, err := idx.InsertFragment(id, counts, total); err != nil {
					t.Fatal(err)
				}
				live[key] = id
			}
			frags, terms, kws := brute(idx)
			if idx.NumFragments() != frags {
				t.Fatalf("trial %d step %d: NumFragments = %d, brute %d", trial, step, idx.NumFragments(), frags)
			}
			if kws != idx.NumKeywords() {
				t.Fatalf("trial %d step %d: NumKeywords = %d, brute %d", trial, step, idx.NumKeywords(), kws)
			}
			var wantAvg float64
			if frags > 0 {
				wantAvg = float64(terms) / float64(frags)
			}
			if idx.AvgTermsPerFragment() != wantAvg {
				t.Fatalf("trial %d step %d: avg = %v, brute %v", trial, step, idx.AvgTermsPerFragment(), wantAvg)
			}
		}
	}
}

// TestIDFPrecomputed: IDF always equals 1/DF, through inserts, removals,
// and compactions.
func TestIDFPrecomputed(t *testing.T) {
	idx := fooddbIndex(t)
	for _, kw := range idx.Keywords() {
		if df := idx.DF(kw); df > 0 {
			if got, want := idx.IDF(kw), 1/float64(df); got != want {
				t.Errorf("IDF(%q) = %v, want %v", kw, got, want)
			}
		}
	}
	if idx.IDF("nosuchword") != 0 {
		t.Error("IDF of unknown word should be 0")
	}
	ref := refByName(t, idx, "(American,12)")
	m, _ := idx.Meta(ref)
	if err := idx.RemoveFragment(m.ID); err != nil {
		t.Fatal(err)
	}
	if got, want := idx.IDF("burger"), 1/float64(idx.DF("burger")); got != want {
		t.Errorf("post-removal IDF(burger) = %v, want %v", got, want)
	}
	if idx.IDF("fries") != 0 {
		t.Errorf("IDF of fully tombstoned word = %v, want 0", idx.IDF("fries"))
	}
}

// TestCompactPostingsThreshold: a list accumulating tombstones is
// compacted in place once the dead ratio crosses the threshold, without
// changing what Postings returns.
func TestCompactPostingsThreshold(t *testing.T) {
	spec := Spec{SelAttrs: []string{"g", "v"}, EqAttrs: []string{"g"}, RangeAttr: "v"}
	idx, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		id := fragment.ID{relation.String("g"), relation.Int(int64(i))}
		if _, err := idx.InsertFragment(id, map[string]int64{"shared": int64(1 + i%3)}, 5); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(idx.s.list("shared").ps); got != n {
		t.Fatalf("list length = %d, want %d", got, n)
	}
	// Remove fragments one at a time; the physical list must never carry
	// a dead ratio at or above the threshold after RemoveFragment returns.
	for i := 0; i < n-1; i++ {
		id := fragment.ID{relation.String("g"), relation.Int(int64(i))}
		if err := idx.RemoveFragment(id); err != nil {
			t.Fatal(err)
		}
		pl := idx.s.list("shared")
		if pl.dead*compactDeadDen >= len(pl.ps)*compactDeadNum {
			t.Fatalf("after %d removals: %d dead in list of %d not compacted", i+1, pl.dead, len(pl.ps))
		}
		if df := idx.DF("shared"); df != n-1-i {
			t.Fatalf("DF = %d, want %d", df, n-1-i)
		}
		if got := len(idx.Postings("shared")); got != n-1-i {
			t.Fatalf("Postings = %d live, want %d", got, n-1-i)
		}
	}
	// Removing the last fragment empties and deletes the list.
	last := fragment.ID{relation.String("g"), relation.Int(int64(n - 1))}
	if err := idx.RemoveFragment(last); err != nil {
		t.Fatal(err)
	}
	if idx.s.list("shared") != nil {
		t.Error("fully dead list not reclaimed")
	}
	if idx.DF("shared") != 0 || idx.Postings("shared") != nil {
		t.Error("reclaimed list still visible")
	}
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
	if pl.dead != 1 || len(pl.ps) != 10 {
		t.Fatalf("expected 1 sub-threshold tombstone, got dead=%d len=%d", pl.dead, len(pl.ps))
	}
	idx.CompactPostings("w")
	if pl.dead != 0 || len(pl.ps) != 9 {
		t.Errorf("after CompactPostings: dead=%d len=%d, want 0/9", pl.dead, len(pl.ps))
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
