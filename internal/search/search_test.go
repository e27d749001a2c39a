package search

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/crawl"
	"repro/internal/fooddb"
	"repro/internal/fragindex"
	"repro/internal/fragindex/fragtest"
	"repro/internal/relation"
	"repro/internal/webapp"
)

// fooddbEngine wires the full stack: analyze servlet → crawl → index →
// engine.
func fooddbEngine(t *testing.T) *Engine {
	t.Helper()
	return New(fooddbIndex(t))
}

// fooddbIndex crawls and indexes fooddb, returning the index and the bound
// application.
func fooddbIndex(t *testing.T) (*fragindex.Index, *webapp.Application) {
	t.Helper()
	db := fooddb.New()
	app, err := webapp.Analyze(fooddb.ServletSource, fooddb.BaseURL)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if err := app.Bind(db); err != nil {
		t.Fatalf("Bind: %v", err)
	}
	bound, err := app.Bound()
	if err != nil {
		t.Fatal(err)
	}
	out, err := crawl.Reference(db, bound)
	if err != nil {
		t.Fatalf("Reference: %v", err)
	}
	spec, err := fragindex.SpecFromBound(bound)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := fragindex.Build(out, spec)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return idx, app
}

// TestExample7 reproduces the paper's top-k walk-through: keyword "burger",
// k=2, s=20 yields the merged page (American,(10,12)) and the single
// fragment page (Thai,10), with exactly the URLs of Example 7.
func TestExample7(t *testing.T) {
	e := fooddbEngine(t)
	results, err := e.Search(context.Background(), Request{Keywords: []string{"burger"}, K: 2, SizeThreshold: 20})
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d, want 2", len(results))
	}
	urls := []string{results[0].URL, results[1].URL}
	sort.Strings(urls)
	want := []string{
		"http://www.example.com/Search?c=American&l=10&u=12",
		"http://www.example.com/Search?c=Thai&l=10&u=10",
	}
	if urls[0] != want[0] || urls[1] != want[1] {
		t.Errorf("urls = %v, want %v", urls, want)
	}

	// Scores match the example's arithmetic: merged page TF = 3/25,
	// Thai page TF = 1/10, both scaled by IDF(burger) = 1/3.
	for _, r := range results {
		switch r.URL {
		case want[0]:
			if math.Abs(r.Score-(3.0/25.0)/3.0) > 1e-12 {
				t.Errorf("merged page score = %v, want %v", r.Score, (3.0/25.0)/3.0)
			}
			if r.Size != 25 || len(r.Fragments) != 2 {
				t.Errorf("merged page size = %d frags = %d", r.Size, len(r.Fragments))
			}
			if !r.RangeLo.Equal(relation.Int(10)) || !r.RangeHi.Equal(relation.Int(12)) {
				t.Errorf("merged range = [%v,%v]", r.RangeLo, r.RangeHi)
			}
		case want[1]:
			if math.Abs(r.Score-(1.0/10.0)/3.0) > 1e-12 {
				t.Errorf("thai score = %v, want %v", r.Score, (1.0/10.0)/3.0)
			}
		}
	}
	// Results are score-descending: merged page (0.04) above Thai (0.0333).
	if results[0].Score < results[1].Score {
		t.Error("results not sorted by score")
	}
}

// TestExpansionPrefersRelevantNeighbor: from (American,10), expansion picks
// relevant (American,12) over irrelevant (American,9).
func TestExpansionPrefersRelevantNeighbor(t *testing.T) {
	e := fooddbEngine(t)
	results, err := e.Search(context.Background(), Request{Keywords: []string{"burger"}, K: 1, SizeThreshold: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("results = %v", results)
	}
	r := results[0]
	if !r.RangeLo.Equal(relation.Int(10)) || !r.RangeHi.Equal(relation.Int(12)) {
		t.Errorf("expansion went to [%v,%v], want [10,12]", r.RangeLo, r.RangeHi)
	}
}

// TestSmallThresholdNoExpansion: with s=1, every relevant fragment is
// returned as its own page.
func TestSmallThresholdNoExpansion(t *testing.T) {
	e := fooddbEngine(t)
	results, err := e.Search(context.Background(), Request{Keywords: []string{"burger"}, K: 10, SizeThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d, want 3 single-fragment pages", len(results))
	}
	for _, r := range results {
		if len(r.Fragments) != 1 {
			t.Errorf("page %s has %d fragments, want 1", r.URL, len(r.Fragments))
		}
		if !r.RangeLo.Equal(r.RangeHi) {
			t.Errorf("single page range [%v,%v]", r.RangeLo, r.RangeHi)
		}
	}
	// Best single page is (American,10) with TF 2/8.
	if results[0].QueryString != "c=American&l=10&u=10" {
		t.Errorf("top page = %s", results[0].QueryString)
	}
}

// TestLargeThresholdMergesWholeGroup: with a huge s, the American group
// merges completely (9..18) and Thai merges its single fragment.
func TestLargeThresholdMergesWholeGroup(t *testing.T) {
	e := fooddbEngine(t)
	results, err := e.Search(context.Background(), Request{Keywords: []string{"burger"}, K: 5, SizeThreshold: 10000})
	if err != nil {
		t.Fatal(err)
	}
	var gotAmerican bool
	for _, r := range results {
		if r.EqValues["cuisine"].Equal(relation.String("American")) {
			gotAmerican = true
			if !r.RangeLo.Equal(relation.Int(9)) || !r.RangeHi.Equal(relation.Int(18)) {
				t.Errorf("american page range [%v,%v], want [9,18]", r.RangeLo, r.RangeHi)
			}
			if r.Size != 8+8+17+8 {
				t.Errorf("american page size = %d, want 41", r.Size)
			}
		}
	}
	if !gotAmerican {
		t.Error("no American page returned")
	}
}

// TestOverlapExclusion: with overlap exclusion (default), the same fragment
// never appears in two results; with AllowOverlap, it may.
func TestOverlapExclusion(t *testing.T) {
	e := fooddbEngine(t)
	results, err := e.Search(context.Background(), Request{Keywords: []string{"burger", "fries", "coffee"}, K: 10, SizeThreshold: 15})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[fragindex.FragRef]bool)
	for _, r := range results {
		for _, f := range r.Fragments {
			if seen[f] {
				t.Fatalf("fragment %d in two results", f)
			}
			seen[f] = true
		}
	}
}

func TestMultipleKeywords(t *testing.T) {
	e := fooddbEngine(t)
	results, err := e.Search(context.Background(), Request{Keywords: []string{"burger", "fries"}, K: 1, SizeThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("results = %v", results)
	}
	// Candidates: (American,10) scores (2/8)(1/3) ≈ 0.0833 on burger
	// alone; (American,12) scores (1/17)(1/3) + (1/17)(1/1) ≈ 0.0784
	// on both keywords. The denser burger fragment wins.
	want := (2.0 / 8.0) * (1.0 / 3.0)
	if math.Abs(results[0].Score-want) > 1e-12 {
		t.Errorf("score = %v, want %v", results[0].Score, want)
	}
	if results[0].QueryString != "c=American&l=10&u=10" {
		t.Errorf("top = %s", results[0].QueryString)
	}
}

func TestNoMatches(t *testing.T) {
	e := fooddbEngine(t)
	results, err := e.Search(context.Background(), Request{Keywords: []string{"zanzibar"}, K: 3, SizeThreshold: 10})
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if len(results) != 0 {
		t.Errorf("results = %v, want none", results)
	}
}

func TestRequestValidation(t *testing.T) {
	e := fooddbEngine(t)
	if _, err := e.Search(context.Background(), Request{K: 3, SizeThreshold: 1}); !errors.Is(err, ErrNoKeywords) {
		t.Errorf("no keywords err = %v", err)
	}
	if _, err := e.Search(context.Background(), Request{Keywords: []string{" "}, K: 3}); !errors.Is(err, ErrNoKeywords) {
		t.Errorf("blank keywords err = %v", err)
	}
	if _, err := e.Search(context.Background(), Request{Keywords: []string{"burger"}, K: 0}); !errors.Is(err, ErrBadK) {
		t.Errorf("k=0 err = %v", err)
	}
}

func TestKeywordNormalization(t *testing.T) {
	e := fooddbEngine(t)
	a, err := e.Search(context.Background(), Request{Keywords: []string{"BURGER"}, K: 2, SizeThreshold: 20})
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Search(context.Background(), Request{Keywords: []string{" burger  burger "}, K: 2, SizeThreshold: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) || a[0].URL != b[0].URL || a[0].Score != b[0].Score {
		t.Errorf("case/duplicate normalization changed results: %v vs %v", a, b)
	}
}

// TestPropScoresMonotoneNonIncreasing: every answer of the search checker
// equals the naive reference's, which recomputes each page's score from
// its fragments and sorts the pages by score; here over totals drawn apart
// from the TFs, 0 among them, so pages score 0 too.
func TestPropScoresMonotoneNonIncreasing(t *testing.T) {
	checkSearch(t, searchConfig{Config: fragtest.Config{Name: "scores", Steps: 20, Corpus: 40, Totals: []int64{0, 1, 3, 7, 20}},
		trials: 2, shards: []int{1}, reach: []string{pathZeroSize, pathCut, pathRejected}})
}

// TestSearchAfterIndexUpdate exercises the future-work update path end to
// end: update a fragment and search again.
func TestSearchAfterIndexUpdate(t *testing.T) {
	e := fooddbEngine(t)
	ten, ok := e.Index().Lookup(mustID(t, e, "(American,10)"))
	if !ok {
		t.Fatal("missing (American,10)")
	}
	meta, _ := e.Index().Meta(ten)
	// The burger comments were deleted: fragment shrinks to 4 terms.
	err := e.Index().UpdateFragment(meta.ID, map[string]int64{
		"burger": 1, "queen": 1, "10": 1, "4.3": 1,
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	results, err := e.Search(context.Background(), Request{Keywords: []string{"burger"}, K: 3, SizeThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	// s=1: three single-fragment pages; the updated fragment now scores
	// 1/4 × 1/3 and stays on top.
	if len(results) != 3 {
		t.Fatalf("results = %d, want 3", len(results))
	}
	if results[0].QueryString != "c=American&l=10&u=10" {
		t.Errorf("top = %s", results[0].QueryString)
	}
	if math.Abs(results[0].Score-(1.0/4.0)/3.0) > 1e-12 {
		t.Errorf("top score = %v", results[0].Score)
	}
}

// mustID finds a fragment ID by display name.
func mustID(t *testing.T, e *Engine, name string) (id []relation.Value) {
	t.Helper()
	for i := 0; ; i++ {
		meta, err := e.Index().Meta(fragindex.FragRef(i))
		if err != nil {
			t.Fatalf("fragment %s not found", name)
		}
		if meta.Alive && meta.ID.String() == name {
			return meta.ID
		}
	}
}

// TestIsLowerWordMatchesFields: the keyword normalizer's shortcut is taken
// only for words strings.Fields(strings.ToLower(w)) would return unchanged
// as their single field.
func TestIsLowerWordMatchesFields(t *testing.T) {
	for _, w := range []string{
		"burger", "c=10", "x", "burger coffee", " burger", "burger\t", "Burger", "BURGER",
		"", " ", "a b", "é", "É", "a\x00b", "a\x7fb", "日本", "a\nb", "~!@#$%^&*()_+",
	} {
		fields := strings.Fields(strings.ToLower(w))
		unchanged := len(fields) == 1 && fields[0] == w
		if isLowerWord(w) && !unchanged {
			t.Errorf("isLowerWord(%q) = true, but Fields(ToLower) = %q", w, fields)
		}
		sort.Strings(fields)
		if got := normalizeKeywords(nil, []string{w}); len(got)+len(fields) > 0 && !reflect.DeepEqual(got, fields) {
			t.Errorf("normalizeKeywords(%q) = %q, want %q", w, got, fields)
		}
	}
	if !isLowerWord("burger") || !isLowerWord("c=10") {
		t.Error("plain lower-case words must take the shortcut")
	}
}
