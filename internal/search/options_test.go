package search

import (
	"context"
	"testing"

	"repro/internal/fragindex/fragtest"
	"repro/internal/relation"
)

// TestCandidateLimitPrefix: limiting candidates to 1 keeps only the
// highest-TF fragment per keyword as a seed.
func TestCandidateLimitPrefix(t *testing.T) {
	e := fooddbEngine(t)
	results, err := e.Search(context.Background(), Request{
		Keywords: []string{"burger"}, K: 10, SizeThreshold: 1, CandidateLimit: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("results = %d, want 1 (only the top posting read)", len(results))
	}
	// The retained fragment is the highest-TF one: (American,10) with 2.
	if results[0].QueryString != "c=American&l=10&u=10" {
		t.Errorf("top = %s", results[0].QueryString)
	}
	// IDF still reflects the full DF (3 fragments), so the score matches
	// the unlimited run's top score.
	full, err := e.Search(context.Background(), Request{Keywords: []string{"burger"}, K: 10, SizeThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Score != full[0].Score {
		t.Errorf("limited score %v != full score %v", results[0].Score, full[0].Score)
	}
}

// TestCandidateLimitLargerThanListIsNoop: a CandidateLimit at or above a
// list's length cuts nothing; a third of the keyword sets hold a keyword
// never drawn before, so many lists are shorter than any limit drawn.
func TestCandidateLimitLargerThanListIsNoop(t *testing.T) {
	checkSearch(t, searchConfig{Config: fragtest.Config{Name: "short-lists", Steps: 15, Corpus: 10, Fresh: true},
		trials: 2, shards: []int{1}, reach: []string{pathUncut}})
}

// TestCandidateLimitDeterministicTies: a CandidateLimit cut keeps the
// documented (TF descending, identifier ascending) prefix of each list —
// the reference's order — not the order the tie band sits in, nor ref
// order: the histories' lists are tie-heavy, and their refs follow
// identifier order only among one range value's duplicates (told apart by
// insertion serials), not across range values nor after a GC.
func TestCandidateLimitDeterministicTies(t *testing.T) {
	checkSearch(t, searchConfig{Config: fragtest.Config{Name: "cut-ties", Steps: 20, Corpus: 40, Ties: true, Dups: true},
		trials: 2, shards: []int{1}, reach: []string{pathCut}})
}

// TestCandidateLimitStableUnderCompaction: the tie band is cut by
// identifier, so a GC renumbering refs cannot move the cut; the histories
// remove and collect often, and insert mid-group.
func TestCandidateLimitStableUnderCompaction(t *testing.T) {
	checkSearch(t, searchConfig{Config: fragtest.Config{Name: "cut-gc", Steps: 20, Corpus: 40, Ops: "pppRRgd"},
		trials: 2, shards: []int{1, 2}, reach: []string{pathCut, pathGC, pathRestore}})
}

// TestSelectSmallestIDsProperty: with one total for every fragment and TFs
// of 1 or 2, a list's tie band is most of the list, so the cut's
// quickselect (selectSmallestIDs) keeps exactly the smallest identifiers of
// long bands, as the reference's sort does.
func TestSelectSmallestIDsProperty(t *testing.T) {
	checkSearch(t, searchConfig{Config: fragtest.Config{Name: "cut-band", Steps: 20, Corpus: 60, Ties: true, Totals: []int64{4}},
		trials: 2, shards: []int{1}, reach: []string{pathCut}})
}

// TestRequireAllConjunctive: "burger fries" with RequireAll only returns
// pages containing both; (Thai,10) has burger but no fries.
func TestRequireAllConjunctive(t *testing.T) {
	e := fooddbEngine(t)
	results, err := e.Search(context.Background(), Request{
		Keywords: []string{"burger", "fries"}, K: 10, SizeThreshold: 1, RequireAll: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("results = %d, want 1: %+v", len(results), results)
	}
	if !results[0].EqValues["cuisine"].Equal(relation.String("American")) ||
		!results[0].RangeLo.Equal(relation.Int(12)) {
		t.Errorf("conjunctive result = %+v", results[0])
	}

	// Without RequireAll the burger-only pages come back too.
	loose, err := e.Search(context.Background(), Request{
		Keywords: []string{"burger", "fries"}, K: 10, SizeThreshold: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(loose) <= len(results) {
		t.Errorf("disjunctive results = %d, want more than %d", len(loose), len(results))
	}
}

// TestRequireAllSatisfiedByExpansion: neither (American,10) nor
// (American,9) alone has both "burger" and "coffee", but a page spanning
// 9..10 does — expansion can satisfy conjunctive queries.
func TestRequireAllSatisfiedByExpansion(t *testing.T) {
	e := fooddbEngine(t)
	results, err := e.Search(context.Background(), Request{
		Keywords: []string{"burger", "coffee"}, K: 5, SizeThreshold: 17, RequireAll: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no conjunctive results")
	}
	found := false
	for _, r := range results {
		if r.RangeLo.Equal(relation.Int(9)) && r.RangeHi.Compare(relation.Int(10)) >= 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("no merged page spanning 9..10: %+v", results)
	}
}
