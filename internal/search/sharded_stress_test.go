package search

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/crawl"
	"repro/internal/fragindex"
)

// TestConcurrentShardedSearchWithWriters is the sharded serving path under
// fire (run with -race in CI): 32 searcher goroutines search across a
// ShardedLiveIndex while four writers stream routed update deltas over
// disjoint fragment sets and a garbage collector runs per-shard
// compactions. Every search must succeed, and — the per-shard pinning
// guarantee — re-running a search against the exact snapshot set it pinned
// must reproduce its answer byte for byte, no matter how many versions the
// writers published in between.
func TestConcurrentShardedSearchWithWriters(t *testing.T) {
	const groups, members = 64, 6
	r := rand.New(rand.NewSource(99))
	changes := randomCorpus(r, groups, members)
	live, err := fragindex.NewShardedLive(buildFrom(t, changes), 8)
	if err != nil {
		t.Fatal(err)
	}
	se := NewSharded(live, nil)

	var queries []Request
	for _, kw := range corpusVocab {
		queries = append(queries,
			Request{Keywords: []string{kw}, K: 5, SizeThreshold: 25},
			Request{Keywords: []string{kw, "ale"}, K: 3, SizeThreshold: 40, RequireAll: true},
		)
	}

	const searchers = 32
	const writers = 4
	const iters = 30
	errc := make(chan error, searchers+writers+1)
	var wg sync.WaitGroup

	// Writers: update-only churn through the routed apply path. No
	// fragment is ever inserted or removed, so insert-vs-update
	// classification cannot race even though the writers' fragment sets
	// overlap; the per-shard single-writer locks serialize the rest.
	for wr := 0; wr < writers; wr++ {
		wg.Add(1)
		go func(wr int) {
			defer wg.Done()
			wrand := rand.New(rand.NewSource(int64(1000 + wr)))
			for it := 0; it < iters; it++ {
				var ds []crawl.Delta
				for n := 0; n < 6; n++ {
					ch := changes[wrand.Intn(len(changes))]
					ds = append(ds, crawl.Delta{Changes: []crawl.FragmentChange{{
						Op: crawl.OpUpdateFragment, ID: ch.id,
						TermCounts: map[string]int64{corpusVocab[wrand.Intn(len(corpusVocab))]: int64(1 + it%4)},
						TotalTerms: int64(3 + it%5),
					}}})
				}
				if _, err := live.ApplyBatch(context.Background(), ds); err != nil {
					errc <- fmt.Errorf("writer %d: %v", wr, err)
					return
				}
			}
		}(wr)
	}

	// Searchers: sharded searches plus pinned-set repeatability.
	for g := 0; g < searchers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				req := queries[(g+it)%len(queries)]
				snaps := se.Pin()
				first, err := se.SearchPinned(context.Background(), snaps, req)
				if err != nil {
					errc <- fmt.Errorf("searcher %d: %v", g, err)
					return
				}
				again, err := se.SearchPinned(context.Background(), snaps, req)
				if err != nil {
					errc <- fmt.Errorf("searcher %d re-run: %v", g, err)
					return
				}
				if !reflect.DeepEqual(first, again) {
					errc <- fmt.Errorf("searcher %d: pinned set not repeatable", g)
					return
				}
				if _, err := se.Search(context.Background(), req); err != nil {
					errc <- fmt.Errorf("searcher %d live: %v", g, err)
					return
				}
			}
		}(g)
	}

	// Compactor: per-shard snapshot GC racing the writers and searchers.
	stopGC := make(chan struct{})
	var gcWG sync.WaitGroup
	gcWG.Add(1)
	go func() {
		defer gcWG.Done()
		for {
			select {
			case <-stopGC:
				return
			default:
			}
			if _, err := live.CompactIfNeeded(context.Background(), 0.2); err != nil {
				errc <- fmt.Errorf("compactor: %v", err)
				return
			}
		}
	}()

	wg.Wait()
	close(stopGC)
	gcWG.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// The structure must still be coherent: the update-only churn never
	// changed the population, and a fresh search works.
	if st := se.Stats(); st.Fragments != len(changes) {
		t.Errorf("fragments after stress = %d, want %d", st.Fragments, len(changes))
	}
	if _, err := se.Search(context.Background(), queries[0]); err != nil {
		t.Errorf("post-stress search: %v", err)
	}
}
