package search

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/crawl"
	"repro/internal/fragindex"
	"repro/internal/fragindex/fragtest"
	"repro/internal/fragment"
	"repro/internal/relation"
)

// fooddbLiveEngine builds a LiveIndex-backed engine over the fooddb stack.
func fooddbLiveEngine(t *testing.T) (*Engine, *fragindex.LiveIndex) {
	t.Helper()
	idx, app := fooddbIndex(t)
	live := fragindex.NewLive(idx)
	return New(live, app), live
}

// TestConcurrentSearchWithLiveApply mixes 32 searcher goroutines with a
// concurrent writer publishing deltas through the LiveIndex (run under
// -race in CI). Every search must succeed, and — the epoch-swap
// guarantee — re-running a search on the snapshot it pinned must
// reproduce its answer exactly, no matter how many versions the writer
// published in between.
func TestConcurrentSearchWithLiveApply(t *testing.T) {
	e, live := fooddbLiveEngine(t)
	queries := stressQueries()

	const searchers = 32
	const iters = 40
	var searcherWG, writerWG sync.WaitGroup
	errc := make(chan error, searchers+1)
	stop := make(chan struct{})

	for g := 0; g < searchers; g++ {
		searcherWG.Add(1)
		go func(g int) {
			defer searcherWG.Done()
			for it := 0; it < iters; it++ {
				req := queries[(g+it)%len(queries)]
				snap := live.Snapshot()
				rs, err := e.SearchSnapshot(context.Background(), snap, req)
				if err != nil {
					errc <- fmt.Errorf("searcher %d: %v", g, err)
					return
				}
				again, err := e.SearchSnapshot(context.Background(), snap, req)
				if err != nil {
					errc <- fmt.Errorf("searcher %d re-run: %v", g, err)
					return
				}
				if !reflect.DeepEqual(rs, again) {
					errc <- fmt.Errorf("searcher %d: pinned snapshot not repeatable", g)
					return
				}
			}
		}(g)
	}

	// The writer churns one fragment's contents and inserts/removes
	// another while the searchers run.
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		target := fragment.ID{relation.String("American"), relation.Int(10)}
		extra := fragment.ID{relation.String("Fusion"), relation.Int(99)}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			d := crawl.Delta{Changes: []crawl.FragmentChange{{
				Op: crawl.OpUpdateFragment, ID: target,
				TermCounts: map[string]int64{"burger": 2, "queen": 1, fmt.Sprintf("v%d", i%5): 1},
				TotalTerms: 4,
			}}}
			if _, err := live.Apply(context.Background(), d); err != nil {
				errc <- fmt.Errorf("writer: %v", err)
				return
			}
			op := crawl.OpInsertFragment
			if i%2 == 1 {
				op = crawl.OpRemoveFragment
			}
			d = crawl.Delta{Changes: []crawl.FragmentChange{{
				Op: op, ID: extra,
				TermCounts: map[string]int64{"fusion": 1}, TotalTerms: 1,
			}}}
			if op == crawl.OpRemoveFragment {
				d.Changes[0].TermCounts, d.Changes[0].TotalTerms = nil, 0
			}
			if _, err := live.Apply(context.Background(), d); err != nil {
				errc <- fmt.Errorf("writer: %v", err)
				return
			}
			if i%8 == 7 {
				if _, err := live.CompactIfNeeded(context.Background(), 0.3); err != nil {
					errc <- fmt.Errorf("writer compact: %v", err)
					return
				}
			}
		}
	}()

	// Keep the writer publishing for the searchers' whole lifetime, then
	// stop it.
	searcherWG.Wait()
	close(stop)
	writerWG.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestPinnedSnapshotPropertyIdenticalResults is the repeatable-reads
// property: the search checker re-asks every step's pinned view after the
// next step, which must answer byte for byte as it did, while the fresh
// view's answers are the reference's over the new contents. This
// configuration runs the serving writer's mix — updates carrying a donor's
// keyword set, inserts, removals of earlier inserts — with GCs and
// Restores, at S ∈ {1, 2}.
func TestPinnedSnapshotPropertyIdenticalResults(t *testing.T) {
	checkSearch(t, searchConfig{Config: fragtest.Config{Name: "pinned", Steps: 30, Corpus: 40, Changes: 8, Exact: true,
		Kinds: "WWWWWWWWWWWWWWIIIEEE", Ops: "ppppgd"}, trials: 2, shards: []int{1, 2}, reach: []string{pathGC, pathRestore}})
}
