package dash

import (
	"context"
	"io"
	"testing"

	"repro/internal/fooddb"
	"repro/internal/relation"
	"repro/internal/search"
)

// TestFacadeEndToEnd runs the package-doc quickstart for every algorithm:
// analyze the Search servlet, build the index, search "burger", and check
// Example 7's URLs come back.
func TestFacadeEndToEnd(t *testing.T) {
	for _, alg := range []Algorithm{AlgReference, AlgStepwise, AlgIntegrated, ""} {
		db := fooddb.New()
		app, err := Analyze(fooddb.ServletSource, fooddb.BaseURL)
		if err != nil {
			t.Fatalf("%s: Analyze: %v", alg, err)
		}
		if err := app.Bind(db); err != nil {
			t.Fatalf("%s: Bind: %v", alg, err)
		}
		idx, stats, err := Build(context.Background(), db, app, BuildOptions{Algorithm: alg})
		if err != nil {
			t.Fatalf("%s: Build: %v", alg, err)
		}
		if stats.Fragments != 5 || stats.GraphEdges != 3 {
			t.Errorf("%s: stats = %+v, want 5 fragments 3 edges", alg, stats)
		}
		if stats.Keywords == 0 || stats.CrawlTime <= 0 {
			t.Errorf("%s: stats missing detail: %+v", alg, stats)
		}
		switch alg {
		case AlgStepwise, AlgIntegrated:
			if len(stats.Phases) != 3 {
				t.Errorf("%s: phases = %v", alg, stats.Phases)
			}
		case AlgReference:
			if len(stats.Phases) != 0 {
				t.Errorf("%s: phases = %v, want none", alg, stats.Phases)
			}
		}

		engine := search.New(idx, app)
		results, err := engine.Search(context.Background(), Request{Keywords: []string{"burger"}, K: 2, SizeThreshold: 20})
		if err != nil {
			t.Fatalf("%s: Search: %v", alg, err)
		}
		if len(results) != 2 {
			t.Fatalf("%s: results = %d, want 2", alg, len(results))
		}
		if results[0].URL != "http://www.example.com/Search?c=American&l=10&u=12" {
			t.Errorf("%s: top URL = %s", alg, results[0].URL)
		}
	}
}

func TestFacadeUnknownAlgorithm(t *testing.T) {
	db := fooddb.New()
	app, _ := Analyze(fooddb.ServletSource, fooddb.BaseURL)
	if err := app.Bind(db); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Build(context.Background(), db, app, BuildOptions{Algorithm: "quantum"}); err == nil {
		t.Error("unknown algorithm should fail")
	}
}

func TestFacadeUnboundApplication(t *testing.T) {
	db := fooddb.New()
	app, _ := Analyze(fooddb.ServletSource, fooddb.BaseURL)
	if _, _, err := Build(context.Background(), db, app, BuildOptions{}); err == nil {
		t.Error("unbound application should fail")
	}
}

// TestFacadeSaveLoad: an index opened over a data directory is saved
// there, and a handle reopened from the directory alone loads it and
// answers as the built index did.
func TestFacadeSaveLoad(t *testing.T) {
	db := fooddb.New()
	app, _ := Analyze(fooddb.ServletSource, fooddb.BaseURL)
	if err := app.Bind(db); err != nil {
		t.Fatal(err)
	}
	idx, _, err := Build(context.Background(), db, app, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	h, err := Open(context.Background(), idx, app, WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.(io.Closer).Close(); err != nil {
		t.Fatal(err)
	}
	loaded, err := Open(context.Background(), nil, app, WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.(io.Closer).Close()
	results, err := loaded.Search(context.Background(), Request{Keywords: []string{"coffee"}, K: 1, SizeThreshold: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].QueryString != "c=American&l=9&u=9" {
		t.Errorf("results over the reopened index = %+v", results)
	}
}

// TestFacadeShardedLiveEngine drives the partitioned serving path through
// the facade: build, shard, search (matching the single-index answer),
// batch-apply, batch-search, and per-shard stats.
func TestFacadeShardedLiveEngine(t *testing.T) {
	db := fooddb.New()
	app, _ := Analyze(fooddb.ServletSource, fooddb.BaseURL)
	if err := app.Bind(db); err != nil {
		t.Fatal(err)
	}
	open := func(opts ...Option) Handle {
		idx, _, err := Build(context.Background(), db, app, BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		h, err := Open(context.Background(), idx, app, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	single, sharded := open(), open(WithShards(3))
	req := Request{Keywords: []string{"burger"}, K: 2, SizeThreshold: 20}
	want, err := single.Search(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sharded.Search(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("sharded results = %d, single = %d", len(got), len(want))
	}
	for i := range want {
		if want[i].URL != got[i].URL || want[i].Score != got[i].Score {
			t.Errorf("result %d: single %s %v, sharded %s %v",
				i, want[i].URL, want[i].Score, got[i].URL, got[i].Score)
		}
	}

	// Batch apply routes and coalesces through the facade.
	id := FragmentID{relation.String("Nordic"), relation.Int(3)}
	st, err := sharded.ApplyBatch(context.Background(), []Delta{
		{Changes: []FragmentChange{{Op: OpInsertFragment, ID: id,
			TermCounts: map[string]int64{"herring": 2}, TotalTerms: 2}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Total.Inserted != 1 || len(st.PerShard) != 1 {
		t.Errorf("apply stats = %+v", st)
	}
	if !sharded.(*ServingEngine).Live().Has(id) {
		t.Error("inserted fragment not visible")
	}
	stats := sharded.Stats()
	if stats.Shards != 3 || len(stats.PerShard) != 3 || stats.Inserted != 1 {
		t.Errorf("stats = %+v", stats)
	}

	// A batch search through the facade, pinned to one shard-snapshot set.
	for _, br := range sharded.SearchBatch(context.Background(), []Request{req, req}) {
		if br.Err != nil {
			t.Fatal(br.Err)
		}
		if len(br.Results) != len(got) {
			t.Errorf("batch results = %d, want %d", len(br.Results), len(got))
		}
	}
}
