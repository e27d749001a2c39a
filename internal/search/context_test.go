package search

// Cancellation semantics of the context-first serving API: pre-cancelled
// contexts fail fast without touching a snapshot, mid-search
// cancellations are observed within the cooperative-check bound, batch
// fan-outs abandon queued work, and a -race stress mixes
// cancelled searchers with a publishing writer.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/crawl"
	"repro/internal/fragindex"
	"repro/internal/fragment"
	"repro/internal/relation"
)

// countingSource wraps a Source and counts snapshot resolutions, so tests
// can assert a failed-fast search never touched the index.
type countingSource struct {
	src  Source
	hits atomic.Int64
}

func (c *countingSource) Snapshot() *fragindex.Snapshot {
	c.hits.Add(1)
	return c.src.Snapshot()
}

// errAfter is a context whose Err() starts failing after a fixed number
// of polls — a deterministic stand-in for "the deadline fires mid-search"
// that lets the test count exactly how far the search ran past it.
type errAfter struct {
	context.Context
	remaining atomic.Int64
	calls     atomic.Int64
}

var errDeadline = errors.New("search test: simulated deadline")

func newErrAfter(polls int64) *errAfter {
	ea := &errAfter{Context: context.Background()}
	ea.remaining.Store(polls)
	return ea
}

func (ea *errAfter) Err() error {
	ea.calls.Add(1)
	if ea.remaining.Add(-1) < 0 {
		return errDeadline
	}
	return nil
}

// TestSearchPreCancelledTouchesNothing: a Search whose ctx is already
// cancelled returns ctx.Err() before the snapshot is even resolved.
func TestSearchPreCancelledTouchesNothing(t *testing.T) {
	e := fooddbEngine(t)
	src := &countingSource{src: e.Source()}
	counted := New(src, e.App())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rs, err := counted.Search(ctx, Request{Keywords: []string{"burger"}, K: 2, SizeThreshold: 20})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rs != nil {
		t.Errorf("cancelled search returned results: %v", rs)
	}
	if n := src.hits.Load(); n != 0 {
		t.Errorf("cancelled search resolved %d snapshots, want 0", n)
	}
}

// bigExpansionEngine builds a single-group corpus whose search pops the
// heap far more than ctxCheckInterval times: many relevant fragments in
// one long chain, a huge K, and a size threshold that keeps every page
// expanding for many steps.
func bigExpansionEngine(t *testing.T, members int) (*Engine, Request) {
	t.Helper()
	idx, err := fragindex.New(fragindex.Spec{
		SelAttrs: []string{"g", "v"}, EqAttrs: []string{"g"}, RangeAttr: "v",
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < members; i++ {
		id := fragment.ID{relation.String("g"), relation.Int(int64(i))}
		if _, err := idx.InsertFragment(id, map[string]int64{"kw": 1}, 2); err != nil {
			t.Fatal(err)
		}
	}
	req := Request{Keywords: []string{"kw"}, K: members, SizeThreshold: members, AllowOverlap: true}
	return New(idx, nil), req
}

// TestSearchCooperativeCancellationBound: a cancellation that fires
// mid-assembly stops the search within ctxCheckInterval heap pops — the
// loop polls Err() once per interval, so after the poll that first fails
// the search must return without another poll's worth of work.
func TestSearchCooperativeCancellationBound(t *testing.T) {
	e, req := bigExpansionEngine(t, 600)

	// Sanity: uncancelled, the same query succeeds and polls the ctx many
	// times (i.e. the workload really crosses the check interval).
	okCtx := newErrAfter(1 << 30)
	if _, err := e.Search(okCtx, req); err != nil {
		t.Fatal(err)
	}
	polls := okCtx.calls.Load()
	if polls < 5 {
		t.Fatalf("workload too small: only %d ctx polls", polls)
	}

	// Let a few polls succeed, then fail: the search must surface exactly
	// the fake deadline, and quickly — one more poll after the first
	// failing one would mean the loop ignored it.
	ea := newErrAfter(3)
	_, err := e.Search(ea, req)
	if !errors.Is(err, errDeadline) {
		t.Fatalf("err = %v, want the simulated deadline", err)
	}
	if calls := ea.calls.Load(); calls != 4 {
		t.Errorf("search polled ctx %d times after arming at 3, want exactly 4 (stop at first failure)", calls)
	}
}

// TestSearchDeadlineMidExpansion drives the real context machinery: a
// deadline short enough to fire mid-assembly returns DeadlineExceeded
// (not a partial result) once the workload is large enough to cross it.
func TestSearchDeadlineMidExpansion(t *testing.T) {
	e, req := bigExpansionEngine(t, 2000)
	for attempt := 0; attempt < 20; attempt++ {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Microsecond)
		_, err := e.Search(ctx, req)
		cancel()
		if err == nil {
			continue // the box was fast enough this round; try again
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want DeadlineExceeded", err)
		}
		return
	}
	t.Skip("search never outlived a 50µs deadline on this machine")
}

// TestParallelSearchCancelledAbandonsQueue: a pre-cancelled batch marks
// every slot with ctx.Err() and resolves no snapshot.
func TestParallelSearchCancelledAbandonsQueue(t *testing.T) {
	e := fooddbEngine(t)
	src := &countingSource{src: e.Source()}
	counted := New(src, e.App())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reqs := make([]Request, 16)
	for i := range reqs {
		reqs[i] = Request{Keywords: []string{"burger"}, K: 2, SizeThreshold: 20}
	}
	for _, br := range counted.ParallelSearch(ctx, reqs, 4) {
		if !errors.Is(br.Err, context.Canceled) {
			t.Fatalf("slot err = %v, want context.Canceled", br.Err)
		}
		if br.Results != nil {
			t.Fatalf("cancelled slot carries results")
		}
	}
	if n := src.hits.Load(); n != 0 {
		t.Errorf("cancelled batch resolved %d snapshots, want 0", n)
	}
}

// TestShardedSearchCancelled: the sharded front door fails fast on
// a pre-cancelled ctx and returns the caller's own error unwrapped.
func TestShardedSearchCancelled(t *testing.T) {
	_, sharded := fooddbSharded(t, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sharded.Search(ctx, Request{Keywords: []string{"burger"}, K: 2, SizeThreshold: 20}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Search err = %v, want context.Canceled", err)
	}
	snaps := sharded.Pin()
	if _, err := sharded.SearchPinned(ctx, snaps, Request{Keywords: []string{"burger"}, K: 2, SizeThreshold: 20}); !errors.Is(err, context.Canceled) {
		t.Fatalf("SearchPinned err = %v, want context.Canceled", err)
	}
	for _, br := range sharded.ParallelSearch(ctx, make([]Request, 4), 2) {
		if !errors.Is(br.Err, context.Canceled) {
			t.Fatalf("batch slot err = %v, want context.Canceled", br.Err)
		}
	}
}

// TestNilContextTolerated: a nil ctx degrades to Background everywhere
// instead of panicking deep in the loop.
func TestNilContextTolerated(t *testing.T) {
	e := fooddbEngine(t)
	//lint:ignore SA1012 the API boundary explicitly tolerates nil
	rs, err := e.Search(nil, Request{Keywords: []string{"burger"}, K: 2, SizeThreshold: 20})
	if err != nil || len(rs) != 2 {
		t.Fatalf("nil-ctx search = %d results, err %v", len(rs), err)
	}
}

// TestLiveApplyCancelled: a cancelled maintenance ctx publishes nothing —
// pre-cancelled fails before the fold, and a cancellation arriving
// between changes rolls the builder back to the published snapshot.
func TestLiveApplyCancelled(t *testing.T) {
	_, live := fooddbLiveEngine(t)
	before := live.Snapshot()
	beforeStats := live.Stats()

	change := func(i int) crawl.FragmentChange {
		return crawl.FragmentChange{
			Op:         crawl.OpInsertFragment,
			ID:         fragment.ID{relation.String("Nordic"), relation.Int(int64(i))},
			TermCounts: map[string]int64{"herring": 1}, TotalTerms: 1,
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := live.Apply(ctx, crawl.Delta{Changes: []crawl.FragmentChange{change(0)}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled Apply err = %v", err)
	}

	// Mid-apply: allow the entry checks and the first change, then fail.
	// Apply polls at entry (2 checks: Apply + applyLocked's per-change),
	// so arm the fake ctx to fail partway through a 64-change delta.
	ea := newErrAfter(10)
	var changes []crawl.FragmentChange
	for i := 0; i < 64; i++ {
		changes = append(changes, change(i))
	}
	if _, err := live.Apply(ea, crawl.Delta{Changes: changes}); !errors.Is(err, errDeadline) {
		t.Fatalf("mid-apply cancellation err = %v", err)
	}

	if live.Snapshot() != before {
		t.Fatal("cancelled applies published a snapshot")
	}
	if got := live.Stats(); got != beforeStats {
		t.Errorf("cancelled applies moved stats: %+v -> %+v", beforeStats, got)
	}
	// The rollback left the builder consistent: the same delta applies
	// cleanly afterwards.
	if _, err := live.Apply(context.Background(), crawl.Delta{Changes: changes}); err != nil {
		t.Fatalf("apply after rollback: %v", err)
	}
	if !live.Snapshot().Has(fragment.ID{relation.String("Nordic"), relation.Int(63)}) {
		t.Error("post-rollback apply not visible")
	}

	// A pre-cancelled Flush must not drain the queue: the buffered deltas
	// survive for a later Flush instead of being silently dropped.
	live.Queue(crawl.Delta{Changes: []crawl.FragmentChange{{
		Op: crawl.OpRemoveFragment,
		ID: fragment.ID{relation.String("Nordic"), relation.Int(63)},
	}}})
	if _, err := live.Flush(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled Flush err = %v", err)
	}
	if n := live.Pending(); n != 1 {
		t.Fatalf("pre-cancelled Flush drained the queue: %d pending, want 1", n)
	}
	if _, err := live.Flush(context.Background()); err != nil {
		t.Fatalf("Flush after cancellation: %v", err)
	}
	if live.Snapshot().Has(fragment.ID{relation.String("Nordic"), relation.Int(63)}) {
		t.Error("queued removal was lost")
	}
}

// TestCancelStressUnderPublishes is the -race stress for the new ctx
// plumbing: 16 searcher goroutines run with aggressively short deadlines
// (and random hard cancels) while a writer keeps publishing snapshots and
// compacting. Every outcome must be a clean result or a context error —
// never a torn read, never a panic.
func TestCancelStressUnderPublishes(t *testing.T) {
	eng, live := fooddbLiveEngine(t)

	const (
		searchers = 16
		perG      = 200
	)
	var (
		wg        sync.WaitGroup
		completed atomic.Int64
		cancelled atomic.Int64
	)
	writerStop := make(chan struct{})

	for g := 0; g < searchers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perG; i++ {
				// A third of the searches get an effectively unbounded
				// budget (they must complete), the rest an aggressive one
				// that often fires mid-search.
				budget := time.Duration(r.Intn(200)) * time.Microsecond
				if i%3 == 0 {
					budget = time.Minute
				}
				ctx, cancel := context.WithTimeout(context.Background(), budget)
				if i%3 != 0 && r.Intn(4) == 0 {
					cancel() // hard cancel before the search even starts
				}
				_, err := eng.Search(ctx, Request{
					Keywords: []string{"burger"}, K: 2, SizeThreshold: 20,
				})
				cancel()
				switch {
				case err == nil:
					completed.Add(1)
				case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
					cancelled.Add(1)
				default:
					panic(fmt.Sprintf("searcher %d: unexpected error %v", g, err))
				}
			}
		}(g)
	}

	// The writer publishes until every searcher is done.
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		id := fragment.ID{relation.String("American"), relation.Int(10)}
		for i := 0; ; i++ {
			select {
			case <-writerStop:
				return
			default:
			}
			d := crawl.Delta{Changes: []crawl.FragmentChange{{
				Op: crawl.OpUpdateFragment, ID: id,
				TermCounts: map[string]int64{"burger": int64(1 + i%5)}, TotalTerms: int64(1 + i%5),
			}}}
			if _, err := live.Apply(context.Background(), d); err != nil {
				panic(err)
			}
			if i%50 == 49 {
				if _, err := live.CompactIfNeeded(context.Background(), 0.5); err != nil {
					panic(err)
				}
			}
		}
	}()
	wg.Wait()
	close(writerStop)
	<-writerDone
	if completed.Load() == 0 {
		t.Error("no search ever completed under the stress deadlines")
	}
	t.Logf("completed %d searches, %d cancelled, %d publishes",
		completed.Load(), cancelled.Load(), live.Stats().Publishes)
}
