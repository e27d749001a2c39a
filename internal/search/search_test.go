package search

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/crawl"
	"repro/internal/fooddb"
	"repro/internal/fragindex"
	"repro/internal/relation"
	"repro/internal/webapp"
)

// fooddbEngine wires the full stack: analyze servlet → crawl → index →
// engine.
func fooddbEngine(t *testing.T) *Engine {
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
	return New(idx, app)
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

// TestPropScoresMonotoneNonIncreasing: for any keyword present in the index
// and any k/s, returned scores are achievable and sorted descending, every
// page's keyword occurrences are consistent with its score, and every page
// is a contiguous interval in one group.
func TestPropScoresMonotoneNonIncreasing(t *testing.T) {
	e := fooddbEngine(t)
	kws := e.Index().Keywords()
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		kw := kws[r.Intn(len(kws))]
		k := 1 + r.Intn(4)
		s := 1 + r.Intn(50)
		results, err := e.Search(context.Background(), Request{Keywords: []string{kw}, K: k, SizeThreshold: s})
		if err != nil {
			t.Fatalf("Search(%q,k=%d,s=%d): %v", kw, k, s, err)
		}
		if len(results) > k {
			t.Fatalf("too many results: %d > %d", len(results), k)
		}
		for i, res := range results {
			if i > 0 && res.Score > results[i-1].Score+1e-12 {
				t.Fatalf("scores not descending for %q: %v then %v",
					kw, results[i-1].Score, res.Score)
			}
			if res.Size <= 0 {
				t.Fatalf("page size = %d", res.Size)
			}
			// Recompute the score from the index.
			var occ, size int64
			for _, f := range res.Fragments {
				meta, err := e.Index().Meta(f)
				if err != nil {
					t.Fatal(err)
				}
				size += meta.Terms
				for _, p := range e.Index().Postings(kw) {
					if p.Frag == f {
						occ += p.TF
					}
				}
			}
			want := float64(occ) / float64(size) / float64(e.Index().DF(kw))
			if math.Abs(res.Score-want) > 1e-9 {
				t.Fatalf("%q page score = %v, recomputed %v", kw, res.Score, want)
			}
		}
	}
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

// TestMultiEngineDeduplicates: two applications over fooddb with the same
// selection attributes produce content-duplicate pages; the multi engine
// keeps one.
func TestMultiEngineDeduplicates(t *testing.T) {
	e1 := fooddbEngine(t)

	// A second application: same query shape, different projections/URL.
	db := fooddb.New()
	src := `
public class Listing extends HttpServlet {
  public void doGet(HttpServletRequest q, HttpServletResponse p) {
    String cuisine = q.getParameter("cui");
    String lo = q.getParameter("from");
    String hi = q.getParameter("to");
    Query = "SELECT name, comment FROM (restaurant LEFT JOIN comment) LEFT JOIN customer " +
        "WHERE (cuisine = '" + cuisine + "') AND (budget BETWEEN " + lo + " AND " + hi + ")";
    output(p, cn.createStatement().executeQuery(Query));
  }
}`
	app2, err := webapp.Analyze(src, "http://www.example.com/Listing")
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if err := app2.Bind(db); err != nil {
		t.Fatal(err)
	}
	bound2, _ := app2.Bound()
	out2, err := crawl.Reference(db, bound2)
	if err != nil {
		t.Fatal(err)
	}
	spec2, _ := fragindex.SpecFromBound(bound2)
	idx2, err := fragindex.Build(out2, spec2)
	if err != nil {
		t.Fatal(err)
	}
	e2 := New(idx2, app2)

	m := NewMulti(e1, e2)
	if len(m.Engines()) != 2 {
		t.Fatal("engines not registered")
	}
	results, err := m.Search(context.Background(), Request{Keywords: []string{"burger"}, K: 10, SizeThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Without dedup each app returns 3 pages for "burger"; identical
	// (cuisine, budget-interval) compositions collapse.
	sigs := make(map[string]int)
	for _, r := range results {
		sigs[r.EqValues["cuisine"].Text()+r.RangeLo.Text()+r.RangeHi.Text()]++
	}
	for sig, n := range sigs {
		if n > 1 {
			t.Errorf("content %s appears %d times", sig, n)
		}
	}
	if len(results) != 3 {
		t.Errorf("deduped results = %d, want 3", len(results))
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
