package search

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// stressQueries is a mixed workload over the fooddb fixture: different
// keywords, k, s, and option combinations, so concurrent searches exercise
// every scratch-reuse path.
func stressQueries() []Request {
	return []Request{
		{Keywords: []string{"burger"}, K: 2, SizeThreshold: 20},
		{Keywords: []string{"burger"}, K: 10, SizeThreshold: 1},
		{Keywords: []string{"burger", "fries", "coffee"}, K: 10, SizeThreshold: 15},
		{Keywords: []string{"burger", "fries"}, K: 1, SizeThreshold: 1},
		{Keywords: []string{"burger"}, K: 5, SizeThreshold: 10000},
		{Keywords: []string{"coffee"}, K: 3, SizeThreshold: 30, AllowOverlap: true},
		{Keywords: []string{"burger", "fries"}, K: 4, SizeThreshold: 25, RequireAll: true},
		{Keywords: []string{"thai"}, K: 2, SizeThreshold: 50, CandidateLimit: 2},
		{Keywords: []string{"zanzibar"}, K: 3, SizeThreshold: 10},
	}
}

// TestConcurrentSearchStress hammers one shared Engine from 32 goroutines
// (run under -race in CI): every goroutine must see exactly the serial
// answer for every query, and the pooled scratch state must never leak
// between concurrent searches.
func TestConcurrentSearchStress(t *testing.T) {
	e := fooddbEngine(t)
	queries := stressQueries()

	// Serial ground truth, computed before any concurrency.
	want := make([][]Result, len(queries))
	for i, q := range queries {
		rs, err := e.Search(context.Background(), q)
		if err != nil {
			t.Fatalf("serial %d: %v", i, err)
		}
		want[i] = rs
	}

	const goroutines = 32
	const iters = 50
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				i := (g + it) % len(queries)
				rs, err := e.Search(context.Background(), queries[i])
				if err != nil {
					errc <- fmt.Errorf("goroutine %d query %d: %v", g, i, err)
					return
				}
				if !reflect.DeepEqual(rs, want[i]) {
					errc <- fmt.Errorf("goroutine %d query %d: results diverged from serial", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestConcurrentMultiEngineStress drives the federated engine's concurrent
// fan-out from 32 goroutines and checks the deterministic merge: every
// call returns exactly the same result list.
func TestConcurrentMultiEngineStress(t *testing.T) {
	m := NewMulti(fooddbEngine(t), fooddbEngine(t))
	req := Request{Keywords: []string{"burger"}, K: 10, SizeThreshold: 1}
	want, err := m.Search(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 32
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 25; it++ {
				rs, err := m.Search(context.Background(), req)
				if err != nil {
					errc <- fmt.Errorf("goroutine %d: %v", g, err)
					return
				}
				if !reflect.DeepEqual(rs, want) {
					errc <- fmt.Errorf("goroutine %d: nondeterministic merge", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestParallelSearchMatchesSerial: the batch API returns positionally what
// serial Search returns, at every worker count.
func TestParallelSearchMatchesSerial(t *testing.T) {
	e := fooddbEngine(t)
	queries := stressQueries()
	want := make([][]Result, len(queries))
	for i, q := range queries {
		rs, err := e.Search(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = rs
	}
	for _, workers := range []int{0, 1, 2, 7, 64} {
		batch := e.ParallelSearch(context.Background(), queries, workers)
		if len(batch) != len(queries) {
			t.Fatalf("workers=%d: %d results for %d requests", workers, len(batch), len(queries))
		}
		for i, br := range batch {
			if br.Err != nil {
				t.Fatalf("workers=%d request %d: %v", workers, i, br.Err)
			}
			if !reflect.DeepEqual(br.Results, want[i]) {
				t.Errorf("workers=%d request %d diverged from serial", workers, i)
			}
		}
	}
	if got := e.ParallelSearch(context.Background(), nil, 4); len(got) != 0 {
		t.Errorf("empty batch returned %d results", len(got))
	}
	// Request errors surface per slot, not as a batch failure.
	batch := e.ParallelSearch(context.Background(), []Request{{Keywords: []string{"burger"}, K: 0}}, 2)
	if batch[0].Err == nil {
		t.Error("bad request did not surface its error")
	}
}

// TestSearchAllocsRegression pins the steady-state allocation budget of the
// scoring core. The seed implementation spent ~90 allocs on the fooddb
// query; the retained-scratch core must stay under half that. The budget
// has slack over the measured value (~20: per-result URL formulation plus
// the returned slice). The hot-keyword case holds the same budget against a
// posting list of at least 1 000 fragments on the benchmark corpus:
// allocations must not grow with the candidate count — per-seed work (a
// by-value heap entry, a lazily materialised path) allocates nothing. Its
// engine has no application, so the budget covers ten results' fragment
// slices and equality-value maps; URL formulation is per result, not per
// candidate, and the fooddb case pins it. The answer's own backing array
// must not outgrow K either: a cached answer keeps all of it alive.
func TestSearchAllocsRegression(t *testing.T) {
	idx, _ := smallQ2Index(t)
	hot := keywordsByDF(idx.Snapshot())[0]
	if df := idx.DF(hot); df < 1000 {
		t.Fatalf("hottest small/Q2 keyword %q has DF %d, want >= 1000", hot, df)
	}
	cases := []struct {
		name string
		e    *Engine
		req  Request
	}{
		{"fooddb", fooddbEngine(t), Request{Keywords: []string{"burger"}, K: 2, SizeThreshold: 20}},
		{"hot keyword", New(idx, nil), Request{Keywords: []string{hot}, K: 10, SizeThreshold: 200}},
	}
	for _, tc := range cases {
		// Warm the scratch.
		res, err := tc.e.Search(context.Background(), tc.req)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != tc.req.K || cap(res) > tc.req.K {
			t.Errorf("%s: %d results in a %d-slot array, want K = %d of both", tc.name, len(res), cap(res), tc.req.K)
		}
		// Measure with a real cancellable context — the serving path always
		// carries one — so the cooperative ctx polling is part of what the
		// budget pins.
		ctx, cancel := context.WithCancel(context.Background())
		avg := testing.AllocsPerRun(200, func() {
			if _, err := tc.e.Search(ctx, tc.req); err != nil {
				t.Fatal(err)
			}
		})
		cancel()
		const budget = 45 // seed: ~90 allocs for the fooddb query
		if avg > budget {
			t.Errorf("%s: Search allocates %.1f/op, budget %d", tc.name, avg, budget)
		}
		t.Logf("%s: %.1f allocs/op", tc.name, avg)
	}
}

// TestSearchAllocsOnTombstonedLists: a posting list that an update left
// with tombstones (below the compaction threshold) is filtered into
// scratch-owned storage, so searching it allocates exactly what searching
// the compacted list does — with and without a CandidateLimit cut, which
// applies to the live postings.
func TestSearchAllocsOnTombstonedLists(t *testing.T) {
	r := rand.New(rand.NewSource(79))
	changes := randomCorpus(r, 30, 40)
	idx := buildFrom(t, changes)
	for i := 0; i < len(changes); i += 10 {
		if err := idx.RemoveFragment(changes[i].id); err != nil {
			t.Fatal(err)
		}
	}
	kws := []string{"ale", "bun"}
	for _, kw := range kws {
		// Postings hands out a filtered copy exactly when the list has
		// tombstones.
		if testing.AllocsPerRun(10, func() { idx.Postings(kw) }) == 0 {
			t.Fatalf("list %q carries no tombstones", kw)
		}
	}
	e := New(idx, nil)
	reqs := []Request{
		{Keywords: kws, K: 10, SizeThreshold: 20},
		{Keywords: kws, K: 10, SizeThreshold: 20, CandidateLimit: 7},
	}
	measure := func(req Request) (float64, []Result) {
		want, err := e.Search(context.Background(), req) // warms the scratch
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(100, func() {
			if _, err := e.Search(context.Background(), req); err != nil {
				t.Fatal(err)
			}
		}), want
	}
	var tombstoned []float64
	var answers [][]Result
	for _, req := range reqs {
		n, res := measure(req)
		tombstoned, answers = append(tombstoned, n), append(answers, res)
	}
	for _, kw := range kws {
		idx.CompactPostings(kw)
		if testing.AllocsPerRun(10, func() { idx.Postings(kw) }) != 0 {
			t.Fatalf("list %q still carries tombstones", kw)
		}
	}
	for i, req := range reqs {
		compacted, res := measure(req)
		if !reflect.DeepEqual(res, answers[i]) {
			t.Errorf("limit %d: answers differ across compaction", req.CandidateLimit)
		}
		if tombstoned[i] != compacted {
			t.Errorf("limit %d: %.1f allocs/op on tombstoned lists, %.1f once compacted",
				req.CandidateLimit, tombstoned[i], compacted)
		}
	}
}
