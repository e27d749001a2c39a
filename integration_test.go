package dash

// Cross-module integration tests: the full pipeline — servlet analysis →
// MapReduce crawl → fragment index → top-k search → URL → live HTTP db-page
// — exercised on both the running example and TPC-H workloads, across
// algorithms, with serialization in the middle.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/crawl"
	"repro/internal/fragindex"
	"repro/internal/fragment"
	"repro/internal/harness"
	"repro/internal/relation"
	"repro/internal/search"
	"repro/internal/tpch"
)

var integrationScale = tpch.Scale{Name: "itest", Customers: 120, OrdersPerCust: 3, LinesPerOrder: 2, Parts: 60}

// TestIntegrationTPCHAllQueriesAllAlgorithms: for every Table III query and
// both MR algorithms, the pipeline produces an index whose search results
// regenerate pages containing the queried keyword.
func TestIntegrationTPCHAllQueriesAllAlgorithms(t *testing.T) {
	for _, qname := range tpch.QueryNames() {
		for _, alg := range []Algorithm{AlgStepwise, AlgIntegrated} {
			t.Run(qname+"/"+string(alg), func(t *testing.T) {
				wl := harness.Workload{Scale: integrationScale, Seed: 17, Query: qname}
				db, app, err := wl.Setup()
				if err != nil {
					t.Fatal(err)
				}
				idx, stats, err := Build(context.Background(), db, app, BuildOptions{Algorithm: alg})
				if err != nil {
					t.Fatal(err)
				}
				if stats.Fragments == 0 {
					t.Fatal("no fragments")
				}
				engine := search.New(idx, app)
				bands := harness.KeywordBands(idx.Snapshot(), 3)
				for _, kw := range bands.Warm {
					results, err := engine.Search(context.Background(), Request{
						Keywords: []string{kw}, K: 3, SizeThreshold: 50,
					})
					if err != nil {
						t.Fatalf("search %q: %v", kw, err)
					}
					if len(results) == 0 {
						t.Fatalf("no results for indexed keyword %q", kw)
					}
					// The suggested page really contains the keyword.
					page, err := app.Execute(results[0].QueryString)
					if err != nil {
						t.Fatalf("execute %s: %v", results[0].QueryString, err)
					}
					if !pageContains(page.Rows, kw) {
						t.Errorf("page %s does not contain %q",
							results[0].QueryString, kw)
					}
				}
			})
		}
	}
}

func pageContains(rows []relation.Row, kw string) bool {
	for _, row := range rows {
		for _, v := range row {
			for _, tok := range fragment.Tokenize(v) {
				if tok == kw {
					return true
				}
			}
		}
	}
	return false
}

// TestIntegrationSearchResultsConsistentAcrossAlgorithms: the indexes built
// by stepwise and integrated crawling answer every search identically.
func TestIntegrationSearchResultsConsistentAcrossAlgorithms(t *testing.T) {
	wl := harness.Workload{Scale: integrationScale, Seed: 23, Query: "Q2"}
	db, app, err := wl.Setup()
	if err != nil {
		t.Fatal(err)
	}
	idxSW, _, err := Build(context.Background(), db, app, BuildOptions{Algorithm: AlgStepwise})
	if err != nil {
		t.Fatal(err)
	}
	idxINT, _, err := Build(context.Background(), db, app, BuildOptions{Algorithm: AlgIntegrated})
	if err != nil {
		t.Fatal(err)
	}
	eSW, eINT := search.New(idxSW, app), search.New(idxINT, app)
	bands := harness.KeywordBands(idxINT.Snapshot(), 5)
	all := append(append(append([]string{}, bands.Hot...), bands.Warm...), bands.Cold...)
	for _, kw := range all {
		for _, s := range []int{50, 500} {
			req := Request{Keywords: []string{kw}, K: 5, SizeThreshold: s}
			a, err := eSW.Search(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			b, err := eINT.Search(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			if len(a) != len(b) {
				t.Fatalf("%q s=%d: %d vs %d results", kw, s, len(a), len(b))
			}
			for i := range a {
				if a[i].QueryString != b[i].QueryString || a[i].Score != b[i].Score {
					t.Fatalf("%q s=%d result %d: %v vs %v", kw, s, i, a[i], b[i])
				}
			}
		}
	}
}

// TestIntegrationSaveLoadServeRoundTrip: build on TPC-H, serialize, reload,
// search, then fetch the resulting URL from a live HTTP server.
func TestIntegrationSaveLoadServeRoundTrip(t *testing.T) {
	wl := harness.Workload{Scale: integrationScale, Seed: 31, Query: "Q1"}
	db, app, err := wl.Setup()
	if err != nil {
		t.Fatal(err)
	}
	idx, _, err := Build(context.Background(), db, app, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveIndex(idx, &buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumFragments() != idx.NumFragments() || loaded.NumEdges() != idx.NumEdges() {
		t.Fatalf("round trip changed index: %d/%d vs %d/%d",
			loaded.NumFragments(), loaded.NumEdges(), idx.NumFragments(), idx.NumEdges())
	}

	srv := httptest.NewServer(app.Handler())
	defer srv.Close()

	engine := search.New(loaded, app)
	bands := harness.KeywordBands(loaded.Snapshot(), 2)
	kw := bands.Hot[0]
	results, err := engine.Search(context.Background(), Request{Keywords: []string{kw}, K: 2, SizeThreshold: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatalf("no results for %q", kw)
	}
	resp, err := http.Get(srv.URL + "?" + results[0].QueryString)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if !strings.Contains(strings.ToLower(string(body)), kw) {
		t.Errorf("served page missing keyword %q", kw)
	}
}

// TestIntegrationDashVsProbingCoverage: Dash's crawl covers every fragment
// a large probing budget discovers, with zero application invocations.
func TestIntegrationDashVsProbingCoverage(t *testing.T) {
	wl := harness.Workload{Scale: integrationScale, Seed: 41, Query: "Q1"}
	db, app, err := wl.Setup()
	if err != nil {
		t.Fatal(err)
	}
	idx, _, err := Build(context.Background(), db, app, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := baseline.NewCollector(db, app)
	if err != nil {
		t.Fatal(err)
	}
	total, err := c.TotalFragments()
	if err != nil {
		t.Fatal(err)
	}
	if idx.NumFragments() != total {
		t.Errorf("dash fragments = %d, ground truth = %d", idx.NumFragments(), total)
	}
	stats, err := c.ProbeCrawl(1, 200)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CoveredFragments > idx.NumFragments() {
		t.Errorf("probing covered %d > dash %d — dash must be complete",
			stats.CoveredFragments, idx.NumFragments())
	}
}

// TestIntegrationUpdateFlow: database insert → targeted re-execution →
// index patch → search, on TPC-H.
func TestIntegrationUpdateFlow(t *testing.T) {
	wl := harness.Workload{Scale: integrationScale, Seed: 43, Query: "Q2"}
	db, app, err := wl.Setup()
	if err != nil {
		t.Fatal(err)
	}
	idx, _, err := Build(context.Background(), db, app, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	engine := search.New(idx, app)

	// No results for a made-up keyword yet.
	if rs, err := engine.Search(context.Background(), Request{Keywords: []string{"xyzzynew"}, K: 3, SizeThreshold: 10}); err != nil || len(rs) != 0 {
		t.Fatalf("pre-update search = %v, %v", rs, err)
	}

	// Insert a lineitem with the new keyword for customer 5, qty 7.
	lineitem, err := db.Table("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	orders, err := db.Table("orders")
	if err != nil {
		t.Fatal(err)
	}
	// Find one of customer 5's orders.
	custIdx := orders.Schema.ColumnIndex("custkey")
	keyIdx := orders.Schema.ColumnIndex("orderkey")
	var orderkey relation.Value
	for _, row := range orders.Rows {
		if row[custIdx].Equal(relation.Int(5)) {
			orderkey = row[keyIdx]
			break
		}
	}
	if orderkey.IsNull() {
		t.Fatal("customer 5 has no orders")
	}
	err = lineitem.Append(relation.Row{
		orderkey, relation.Int(1), relation.Int(9), relation.Int(7),
		relation.Float(10), relation.String("air"), relation.String("xyzzynew item"),
	})
	if err != nil {
		t.Fatal(err)
	}

	// Recompute the affected fragment (custkey=5, qty=7) and patch.
	bound, err := app.Bound()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := bound.Execute(db, map[string]relation.Value{
		"r": relation.Int(5), "min": relation.Int(7), "max": relation.Int(7),
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int64)
	var totalTerms int64
	for _, row := range rows.Rows {
		per := make(map[string]int)
		for _, v := range row {
			totalTerms += int64(fragment.CountTokens(v, per))
		}
		for kw, c := range per {
			counts[kw] += int64(c)
		}
	}
	id := fragment.ID{relation.Int(5), relation.Int(7)}
	if _, ok := idx.Lookup(id); ok {
		err = idx.UpdateFragment(id, counts, totalTerms)
	} else {
		_, err = idx.InsertFragment(id, counts, totalTerms)
	}
	if err != nil {
		t.Fatal(err)
	}

	rs, err := engine.Search(context.Background(), Request{Keywords: []string{"xyzzynew"}, K: 3, SizeThreshold: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 {
		t.Fatalf("post-update results = %d, want 1", len(rs))
	}
	page, err := app.Execute(rs[0].QueryString)
	if err != nil {
		t.Fatal(err)
	}
	if !pageContains(page.Rows, "xyzzynew") {
		t.Errorf("updated page %s missing new keyword", rs[0].QueryString)
	}
}

// TestIntegrationStaleDeriveApply reproduces the maintenance race between
// DeriveDelta and Apply: a delta derived while a fragment existed
// (classified as update) meets a serving index where concurrent
// maintenance has since removed it. The stale apply must fail without
// publishing, and the race-free path — Recrawl, which derives and applies
// under one lock — must reclassify and succeed.
func TestIntegrationStaleDeriveApply(t *testing.T) {
	db, app, err := harness.Fooddb()
	if err != nil {
		t.Fatal(err)
	}
	idx, _, err := Build(context.Background(), db, app, BuildOptions{Algorithm: AlgReference})
	if err != nil {
		t.Fatal(err)
	}
	h, err := Open(context.Background(), idx, app)
	if err != nil {
		t.Fatal(err)
	}
	live := h.(*ServingEngine).Live().Shard(0)
	bound, err := app.Bound()
	if err != nil {
		t.Fatal(err)
	}
	id := FragmentID{relation.String("American"), relation.Int(10)}
	// Derivation sees the fragment live and classifies its change as an
	// update.
	stale, err := crawl.DeriveDelta(context.Background(), db, bound, []fragment.ID{id}, live.Snapshot().Has)
	if err != nil {
		t.Fatal(err)
	}
	if len(stale.Changes) != 1 || stale.Changes[0].Op != crawl.OpUpdateFragment {
		t.Fatalf("derived delta = %+v, want one update", stale.Changes)
	}
	// Concurrent maintenance deletes the fragment before the apply lands.
	if _, err := h.Apply(context.Background(), Delta{Changes: []FragmentChange{
		{Op: OpRemoveFragment, ID: id},
	}}); err != nil {
		t.Fatal(err)
	}
	s1 := live.Snapshot()
	if _, err := h.Apply(context.Background(), stale); !errors.Is(err, fragindex.ErrNoFragment) {
		t.Fatalf("stale apply err = %v, want ErrNoFragment", err)
	}
	if live.Snapshot() != s1 {
		t.Error("failed stale apply published a snapshot")
	}
	// Recrawl derives under the maintenance lock against the latest
	// snapshot: the same partition now classifies as insert and applies.
	st, err := h.Recrawl(context.Background(), db, []FragmentID{id})
	if err != nil {
		t.Fatal(err)
	}
	if st.Total.Inserted != 1 || st.Total.Updated != 0 {
		t.Errorf("recrawl after removal stats = %+v, want one insert", st)
	}
	if !live.Snapshot().Has(id) {
		t.Error("recrawled fragment missing from the serving snapshot")
	}
}

// TestIntegrationNaiveAgreesWithDashOnTopPage: the naive whole-page index
// and Dash agree on what the single best page for a cold keyword is (same
// fragment composition), even though naive returns redundant variants.
func TestIntegrationNaiveAgreesWithDashOnTopPage(t *testing.T) {
	wl := harness.Workload{Scale: integrationScale, Seed: 47, Query: "Q1"}
	db, app, err := wl.Setup()
	if err != nil {
		t.Fatal(err)
	}
	bound, err := app.Bound()
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := harness.RunCrawl(context.Background(), db, app,
		crawl.AlgIntegrated, crawl.Options{}, "itest")
	if err != nil {
		t.Fatal(err)
	}
	idx, _, err := harness.BuildGraph(out, bound, "Q1")
	if err != nil {
		t.Fatal(err)
	}
	spec := idx.Spec()
	naive, err := baseline.BuildNaive(out, spec, baseline.NaiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	engine := search.New(idx, app)
	bands := harness.KeywordBands(idx.Snapshot(), 3)
	kw := bands.Cold[0]

	dashTop, err := engine.Search(context.Background(), search.Request{Keywords: []string{kw}, K: 1, SizeThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	naiveTop := naive.Search([]string{kw}, 1)
	if len(dashTop) == 0 || len(naiveTop) == 0 {
		t.Fatalf("empty results: dash=%d naive=%d", len(dashTop), len(naiveTop))
	}
	// At s=1 Dash's page is a single fragment; naive's best page for a
	// cold keyword is the same single fragment (densest page).
	if len(naiveTop[0].Page.Fragments) != 1 ||
		naiveTop[0].Page.Fragments[0] != dashTop[0].Fragments[0] {
		t.Errorf("top pages differ: dash %v vs naive %v",
			dashTop[0].Fragments, naiveTop[0].Page.Fragments)
	}
}
