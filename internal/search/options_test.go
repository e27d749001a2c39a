package search

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/crawl"
	"repro/internal/fragindex"
	"repro/internal/fragment"
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

func TestCandidateLimitLargerThanListIsNoop(t *testing.T) {
	e := fooddbEngine(t)
	limited, err := e.Search(context.Background(), Request{
		Keywords: []string{"burger"}, K: 5, SizeThreshold: 20, CandidateLimit: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	full, err := e.Search(context.Background(), Request{Keywords: []string{"burger"}, K: 5, SizeThreshold: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(limited) != len(full) {
		t.Fatalf("limited = %d results, full = %d", len(limited), len(full))
	}
	for i := range full {
		if limited[i].URL != full[i].URL || limited[i].Score != full[i].Score {
			t.Errorf("result %d differs: %v vs %v", i, limited[i], full[i])
		}
	}
}

// TestCandidateLimitDeterministicTies: when the cutoff TF is tied across
// more postings than the limit admits, the kept prefix is the documented
// (TF desc, identifier asc) total order — not whatever order the tie band
// happens to sit in, and not ref order — so truncated searches are a
// function of content. The index is built with insertion order
// deliberately opposed to identifier order, so the tie band's smallest
// identifiers hold its largest refs.
func TestCandidateLimitDeterministicTies(t *testing.T) {
	idx, err := fragindex.New(fragindex.Spec{
		SelAttrs: []string{"g", "v"}, EqAttrs: []string{"g"}, RangeAttr: "v",
	})
	if err != nil {
		t.Fatal(err)
	}
	// Ten single-fragment groups sharing keyword "w" at TF 1; descending
	// identifier insertion gives ref 0 the largest identifier.
	const n = 10
	for i := 0; i < n; i++ {
		id := fragment.ID{relation.String(fmt.Sprintf("g%d", n-1-i)), relation.Int(0)}
		if _, err := idx.InsertFragment(id, map[string]int64{"w": 1}, 1); err != nil {
			t.Fatal(err)
		}
	}
	e := New(idx, nil)
	req := Request{Keywords: []string{"w"}, K: n, SizeThreshold: 1, CandidateLimit: 3}
	results, err := e.Search(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d, want 3", len(results))
	}
	seeded := map[fragindex.FragRef]bool{}
	for _, r := range results {
		for _, ref := range r.Fragments {
			seeded[ref] = true
		}
	}
	// The contract keeps the smallest identifiers of the tie band: g0, g1
	// and g2, inserted last.
	for ref := fragindex.FragRef(n - 3); ref < n; ref++ {
		if !seeded[ref] {
			t.Errorf("ref %d missing from the truncated candidate set: %v", ref, seeded)
		}
	}
	// Repeated identical searches return identical results.
	again, err := e.Search(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(results, again) {
		t.Errorf("truncated search not repeatable:\nfirst %+v\nagain %+v", results, again)
	}
	// A partial tie band — cutoff TF tied but some higher-TF postings
	// above it — keeps all higher-TF postings plus the smallest tied
	// identifiers.
	top := fragment.ID{relation.String("zz-top"), relation.Int(0)}
	if _, err := idx.InsertFragment(top, map[string]int64{"w": 5}, 1); err != nil {
		t.Fatal(err)
	}
	topRef, _ := idx.Lookup(top)
	results, err = e.Search(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	seeded = map[fragindex.FragRef]bool{}
	for _, r := range results {
		for _, ref := range r.Fragments {
			seeded[ref] = true
		}
	}
	if !seeded[topRef] || !seeded[n-1] || !seeded[n-2] {
		t.Errorf("partial band kept %v, want {%d, %d, %d}", seeded, topRef, n-1, n-2)
	}
}

// TestCandidateLimitStableUnderCompaction: the tie band is cut by
// identifier, so renumbering refs cannot move the cut. A fragment inserted
// after the build gets the highest ref although its identifier sorts
// first in the band; compaction renumbers refs in identifier order. The
// truncated answer must be the same before and after.
func TestCandidateLimitStableUnderCompaction(t *testing.T) {
	var changes []corpusChange
	for g := 1; g <= 9; g++ {
		changes = append(changes, corpusChange{
			id:     fragment.ID{relation.String(fmt.Sprintf("g%02d", g)), relation.Int(0)},
			counts: map[string]int64{"w": 1},
			total:  2,
		})
	}
	live := fragindex.NewLive(buildFrom(t, changes))
	ctx := context.Background()
	first := fragment.ID{relation.String("g00"), relation.Int(0)}
	if _, err := live.Apply(ctx, crawl.Delta{Changes: []crawl.FragmentChange{{
		Op: crawl.OpInsertFragment, ID: first, TermCounts: map[string]int64{"w": 1}, TotalTerms: 2,
	}}}); err != nil {
		t.Fatal(err)
	}
	e := New(live, nil)
	req := Request{Keywords: []string{"w"}, K: 10, SizeThreshold: 1, CandidateLimit: 3}
	before, err := e.Search(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := live.CompactIfNeeded(ctx, 0); err != nil || !ok {
		t.Fatalf("CompactIfNeeded = %v, %v; want a compaction", ok, err)
	}
	after, err := e.Search(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if d := diffResults(before, after); d != "" {
		t.Fatalf("truncated answer moved under compaction: %s", d)
	}
	var kept []string
	for _, r := range before {
		kept = append(kept, r.EqValues["g"].Text())
	}
	if got := strings.Join(kept, " "); got != "g00 g01 g02" {
		t.Errorf("kept the pages of %s, want g00 g01 g02", got)
	}
}

// TestSelectSmallestIDsProperty: quickselect keeps exactly the need
// smallest identifiers for random bands, matching a reference sort.
func TestSelectSmallestIDsProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		m := 1 + r.Intn(60)
		band := make([]bandEntry, m)
		seen := map[int]bool{}
		for i := range band {
			v := r.Intn(1000)
			for seen[v] {
				v = r.Intn(1000)
			}
			seen[v] = true
			band[i] = bandEntry{id: fragment.ID{relation.String("g"), relation.Int(int64(v))}, p: fragindex.Posting{Frag: fragindex.FragRef(i), TF: 1}}
		}
		need := 1 + r.Intn(m)
		sorted := append([]bandEntry(nil), band...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].id.Compare(sorted[j].id) < 0 })
		want := map[fragindex.FragRef]bool{}
		for _, e := range sorted[:need] {
			want[e.p.Frag] = true
		}
		selectSmallestIDs(band, need)
		for _, e := range band[:need] {
			if !want[e.p.Frag] {
				t.Fatalf("trial %d (m=%d need=%d): %v kept, not among smallest",
					trial, m, need, e.id)
			}
			delete(want, e.p.Frag)
		}
		if len(want) != 0 {
			t.Fatalf("trial %d: smallest identifiers missing: %v", trial, want)
		}
	}
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
