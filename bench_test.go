package dash

// This file regenerates the paper's evaluation (§VII) as Go benchmarks —
// one benchmark family per table/figure, plus ablations for the design
// choices DESIGN.md calls out. cmd/dashbench prints the same experiments as
// paper-style tables at the full parameter grid; these benchmarks are the
// statistically tracked (benchstat-able) form at laptop-bounded sizes.
//
//	BenchmarkTable2_DatasetGen        — Table II dataset generation
//	BenchmarkFig10_CrawlIndex         — Fig. 10 SW vs INT crawl+index
//	BenchmarkTable4_FragmentGraph     — Table IV fragment graph build
//	BenchmarkFig11_TopKSearch         — Fig. 11 search latency sweep
//	BenchmarkApplyPublishCost         — snapshot publish cost vs index size,
//	                                    single vs batched delta applies
//	BenchmarkFoldQ2                   — a serving writer's fold and publish
//	                                    on the Q2 corpus, two shards
//	BenchmarkCheckpointQ2             — a shard's Dump and compaction, and
//	                                    the 2-way partition, on Q2
//	BenchmarkAblation_*               — naive vs fragments, reduce tasks,
//	                                    incremental vs batch graph
//	BenchmarkExample7_Fooddb          — the running example end to end

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/crawl"
	"repro/internal/durable"
	"repro/internal/fooddb"
	"repro/internal/fragindex"
	"repro/internal/fragment"
	"repro/internal/harness"
	"repro/internal/relation"
	"repro/internal/search"
	"repro/internal/tpch"
	"repro/internal/webapp"
)

// benchScale keeps benchmark iterations affordable; dashbench covers the
// full small/medium/large grid.
var benchScale = tpch.Small

const benchSeed = 42

// benchState caches per-workload artifacts across benchmarks so expensive
// setup is paid once.
type benchState struct {
	db   *Database
	app  *webapp.Application
	out  *crawl.Output
	idx  *fragindex.Index
	eng  *search.Engine
	band harness.Bands
}

var (
	benchMu    sync.Mutex
	benchCache = map[string]*benchState{}
)

func workloadState(b *testing.B, query string) *benchState {
	b.Helper()
	benchMu.Lock()
	defer benchMu.Unlock()
	if st, ok := benchCache[query]; ok {
		return st
	}
	wl := harness.Workload{Scale: benchScale, Seed: benchSeed, Query: query}
	db, app, err := wl.Setup()
	if err != nil {
		b.Fatal(err)
	}
	bound, err := app.Bound()
	if err != nil {
		b.Fatal(err)
	}
	out, err := crawl.Integrated(context.Background(), db, bound, crawl.Options{})
	if err != nil {
		b.Fatal(err)
	}
	spec, err := fragindex.SpecFromBound(bound)
	if err != nil {
		b.Fatal(err)
	}
	idx, err := fragindex.Build(out, spec)
	if err != nil {
		b.Fatal(err)
	}
	st := &benchState{
		db:   db,
		app:  app,
		out:  out,
		idx:  idx,
		eng:  search.New(idx, app),
		band: harness.KeywordBands(idx.Snapshot(), 30),
	}
	benchCache[query] = st
	return st
}

// BenchmarkTable2_DatasetGen measures dataset generation per scale
// (Table II's datasets; byte sizes are printed by dashbench -table2).
func BenchmarkTable2_DatasetGen(b *testing.B) {
	for _, scale := range []tpch.Scale{tpch.Small, tpch.Medium} {
		b.Run(scale.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				db := tpch.Generate(scale, benchSeed)
				if db.TotalRows() == 0 {
					b.Fatal("empty dataset")
				}
			}
		})
	}
}

// BenchmarkFig10_CrawlIndex measures database crawling + fragment indexing
// for each (query, algorithm) cell of Fig. 10 on the benchmark scale.
func BenchmarkFig10_CrawlIndex(b *testing.B) {
	for _, query := range tpch.QueryNames() {
		st := workloadState(b, query)
		bound, err := st.app.Bound()
		if err != nil {
			b.Fatal(err)
		}
		for _, alg := range []crawl.Algorithm{crawl.AlgStepwise, crawl.AlgIntegrated} {
			b.Run(fmt.Sprintf("%s/%s", query, alg), func(b *testing.B) {
				var shuffled int64
				for i := 0; i < b.N; i++ {
					var out *crawl.Output
					var err error
					if alg == crawl.AlgStepwise {
						out, err = crawl.Stepwise(context.Background(), st.db, bound, crawl.Options{})
					} else {
						out, err = crawl.Integrated(context.Background(), st.db, bound, crawl.Options{})
					}
					if err != nil {
						b.Fatal(err)
					}
					for _, p := range out.Phases {
						shuffled += p.Metrics.IntermediateBytes
					}
				}
				b.ReportMetric(float64(shuffled)/float64(b.N)/1e6, "shuffleMB/op")
			})
		}
	}
}

// BenchmarkTable4_FragmentGraph measures fragment-index (graph)
// construction per query — Table IV's building time column; fragment counts
// and average keywords are reported as metrics.
func BenchmarkTable4_FragmentGraph(b *testing.B) {
	for _, query := range tpch.QueryNames() {
		st := workloadState(b, query)
		bound, err := st.app.Bound()
		if err != nil {
			b.Fatal(err)
		}
		spec, err := fragindex.SpecFromBound(bound)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(query, func(b *testing.B) {
			var idx *fragindex.Index
			for i := 0; i < b.N; i++ {
				idx, err = fragindex.Build(st.out, spec)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(idx.NumFragments()), "fragments")
			b.ReportMetric(idx.AvgTermsPerFragment(), "keywords/frag")
		})
	}
}

// BenchmarkFig11_TopKSearch sweeps Fig. 11's grid — keyword temperature ×
// k × s — on Q2 (the paper's reported configuration).
func BenchmarkFig11_TopKSearch(b *testing.B) {
	st := workloadState(b, "Q2")
	bands := []struct {
		name string
		kws  []string
	}{{"cold", st.band.Cold}, {"warm", st.band.Warm}, {"hot", st.band.Hot}}
	ks, ss := harness.Fig11Grid()
	for _, band := range bands {
		if len(band.kws) == 0 {
			b.Fatalf("empty %s band", band.name)
		}
		for _, s := range ss {
			for _, k := range ks {
				b.Run(fmt.Sprintf("%s/s=%d/k=%d", band.name, s, k), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						kw := band.kws[i%len(band.kws)]
						_, err := st.eng.Search(context.Background(), search.Request{
							Keywords: []string{kw}, K: k, SizeThreshold: s,
						})
						if err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkSearchContextOverhead pins the cost of the cooperative
// cancellation check the context-first API added to the expansion loop
// (one ctx.Err() poll per ctxCheckInterval heap pops, plus one per
// keyword at seeding). The three variants must sit within noise of each
// other: ctx=background polls a context whose Err is a nil return,
// ctx=cancellable an atomic-load cancelCtx — the serving path's real
// shape — and ctx=deadline a timerCtx that never fires. The request mix
// is the Fig11 hot band at the grid's expensive corner, where the loop
// runs longest and a per-pop cost would show first.
func BenchmarkSearchContextOverhead(b *testing.B) {
	st := workloadState(b, "Q2")
	if len(st.band.Hot) == 0 {
		b.Fatal("no hot keywords")
	}
	run := func(b *testing.B, ctx context.Context) {
		for i := 0; i < b.N; i++ {
			kw := st.band.Hot[i%len(st.band.Hot)]
			_, err := st.eng.Search(ctx, search.Request{
				Keywords: []string{kw}, K: 20, SizeThreshold: 1000,
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("ctx=background", func(b *testing.B) { run(b, context.Background()) })
	b.Run("ctx=cancellable", func(b *testing.B) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		run(b, ctx)
	})
	b.Run("ctx=deadline", func(b *testing.B) {
		ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
		defer cancel()
		run(b, ctx)
	})
}

// BenchmarkParallelSearchThroughput measures batch search over a shared
// engine at increasing worker counts (the cmd/dashbench "parallel"
// experiment in benchstat-able form). The metric to watch is ns/op
// shrinking as workers grow: the zero-allocation scoring core keeps
// goroutines out of each other's way.
func BenchmarkParallelSearchThroughput(b *testing.B) {
	st := workloadState(b, "Q2")
	var reqs []search.Request
	for _, kws := range [][]string{st.band.Cold, st.band.Warm, st.band.Hot} {
		for _, kw := range kws {
			reqs = append(reqs, search.Request{Keywords: []string{kw}, K: 10, SizeThreshold: 200})
		}
	}
	if len(reqs) == 0 {
		b.Fatal("no requests")
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, br := range st.eng.ParallelSearch(context.Background(), reqs, workers) {
					if br.Err != nil {
						b.Fatal(br.Err)
					}
				}
			}
			b.ReportMetric(float64(len(reqs)*b.N)/b.Elapsed().Seconds(), "searches/s")
		})
	}
}

// BenchmarkLiveMutationUnderLoad measures online index maintenance — the
// epoch-swap publish cycle — as a first-class serving scenario: fragment
// updates applied through a LiveIndex while 0, 8, or 32 reader goroutines
// stream top-k searches against the concurrently published snapshots. The
// metric pair to watch is mutations/s holding up as readers grow (readers
// never block the writer) alongside the searches the readers sustain.
func BenchmarkLiveMutationUnderLoad(b *testing.B) {
	st := workloadState(b, "Q2")
	bound, err := st.app.Bound()
	if err != nil {
		b.Fatal(err)
	}
	spec, err := fragindex.SpecFromBound(bound)
	if err != nil {
		b.Fatal(err)
	}
	// Per-fragment term counts, so each mutation is a realistic full
	// fragment update.
	counts := make(map[string]map[string]int64)
	for kw, ps := range st.out.Inverted {
		for _, p := range ps {
			m, ok := counts[p.FragKey]
			if !ok {
				m = make(map[string]int64)
				counts[p.FragKey] = m
			}
			m[kw] = p.TF
		}
	}
	ids, err := st.out.Fragments()
	if err != nil {
		b.Fatal(err)
	}
	kws := append(append([]string{}, st.band.Hot...), st.band.Warm...)
	for _, readers := range []int{0, 8, 32} {
		b.Run(fmt.Sprintf("readers=%d", readers), func(b *testing.B) {
			idx, err := fragindex.Build(st.out, spec)
			if err != nil {
				b.Fatal(err)
			}
			live := fragindex.NewLive(idx)
			eng := search.New(live, st.app)
			stop := make(chan struct{})
			var wg sync.WaitGroup
			var reads int64
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					var n int64
					for i := 0; ; i++ {
						select {
						case <-stop:
							atomic.AddInt64(&reads, n)
							return
						default:
						}
						_, err := eng.Search(context.Background(), search.Request{
							Keywords:      []string{kws[(r+i)%len(kws)]},
							K:             10,
							SizeThreshold: 200,
						})
						if err != nil {
							panic(err)
						}
						n++
					}
				}(r)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := ids[i%len(ids)]
				key := id.Key()
				d := crawl.Delta{Changes: []crawl.FragmentChange{{
					Op: crawl.OpUpdateFragment, ID: id,
					TermCounts: counts[key], TotalTerms: st.out.FragmentTerms[key],
				}}}
				if _, err := live.Apply(context.Background(), d); err != nil {
					b.Fatal(err)
				}
				// Periodic snapshot GC, as a production apply loop runs it:
				// updates tombstone one ref each, and unbounded tombstones
				// would turn the metadata copy quadratic.
				if i%512 == 511 {
					if _, err := live.CompactIfNeeded(context.Background(), 0.5); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			close(stop)
			wg.Wait()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "mutations/s")
			if readers > 0 {
				b.ReportMetric(float64(reads)/b.Elapsed().Seconds(), "searches/s")
			}
		})
	}
}

// syntheticIndex builds an n-fragment index with a bounded keyword
// vocabulary (so posting lists, not the vocabulary, grow with n) — the
// shape that exposes per-publish metadata cost as the index scales. The
// many small groups ("g0000000"… of 8 members each) also spread evenly
// under group-key shard routing.
func syntheticIndex(b *testing.B, n int) (*fragindex.Index, []fragment.ID) {
	b.Helper()
	idx, err := fragindex.New(fragindex.Spec{
		SelAttrs: []string{"g", "v"}, EqAttrs: []string{"g"}, RangeAttr: "v",
	})
	if err != nil {
		b.Fatal(err)
	}
	ids := make([]fragment.ID, n)
	for i := 0; i < n; i++ {
		// Groups of 8 refs; ascending insertion appends at each group's tail.
		ids[i] = fragment.ID{
			relation.String(fmt.Sprintf("g%07d", i/8)),
			relation.Int(int64(i % 8)),
		}
		if _, err := idx.InsertFragment(ids[i], syntheticCounts(i, 1), 3); err != nil {
			b.Fatal(err)
		}
	}
	return idx, ids
}

// syntheticLive wraps a synthetic index for online serving.
func syntheticLive(b *testing.B, n int) (*fragindex.LiveIndex, []fragment.ID) {
	b.Helper()
	idx, ids := syntheticIndex(b, n)
	return fragindex.NewLive(idx), ids
}

// syntheticCounts derives fragment i's keyword statistics; bump varies the
// TF so repeated updates are real content changes.
func syntheticCounts(i, bump int) map[string]int64 {
	return map[string]int64{
		fmt.Sprintf("w%05d", i%10000):     int64(1 + bump%3),
		fmt.Sprintf("x%05d", (i*7)%10000): 2,
	}
}

// BenchmarkApplyPublishCost measures what one published snapshot costs as
// the index grows — the chunked-metadata claim in benchstat-able form. For
// each index size, "single" applies one single-fragment update per publish
// while "batch=100" folds 100 single-fragment deltas into one publish
// (LiveIndex.ApplyBatch), so ns/change shows the amortization. With
// chunked metadata the clonedChunks/op metric stays flat (the update's own
// chunk plus the append tail) instead of growing with refs/chunkSize, and
// per-publish time is dominated by the touched posting lists — sublinear
// in index size, where the pre-chunk design paid an O(refs) metadata
// memcpy per publish.
func BenchmarkApplyPublishCost(b *testing.B) {
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("refs=%d", n), func(b *testing.B) {
			live, ids := syntheticLive(b, n)
			runBatch := func(b *testing.B, batch int) {
				var chunks, changes int
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ds := make([]crawl.Delta, batch)
					for j := 0; j < batch; j++ {
						at := (i*batch + j) % len(ids)
						ds[j] = crawl.Delta{Changes: []crawl.FragmentChange{{
							Op: crawl.OpUpdateFragment, ID: ids[at],
							TermCounts: syntheticCounts(at, i+1), TotalTerms: 3,
						}}}
					}
					var st fragindex.ApplyStats
					var err error
					if batch == 1 {
						st, err = live.Apply(context.Background(), ds[0])
					} else {
						st, err = live.ApplyBatch(context.Background(), ds)
					}
					if err != nil {
						b.Fatal(err)
					}
					chunks += st.ClonedChunks
					changes += batch
					// Periodic snapshot GC, as a production apply loop runs
					// it: every update tombstones one ref, and unbounded
					// tombstones would grow the ref space without limit.
					if i%512 == 511 {
						if _, err := live.CompactIfNeeded(context.Background(), 0.5); err != nil {
							b.Fatal(err)
						}
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(changes), "ns/change")
				b.ReportMetric(float64(chunks)/float64(b.N), "clonedChunks/op")
			}
			b.Run("apply=single", func(b *testing.B) { runBatch(b, 1) })
			b.Run("apply=batch100", func(b *testing.B) { runBatch(b, 100) })
		})
	}
}

// shardedBenchEngine partitions a fresh copy of the workload's index (the
// cached one stays untouched — NewShardedLive takes ownership).
func shardedBenchEngine(b *testing.B, st *benchState, shards int) *search.ShardedEngine {
	b.Helper()
	bound, err := st.app.Bound()
	if err != nil {
		b.Fatal(err)
	}
	spec, err := fragindex.SpecFromBound(bound)
	if err != nil {
		b.Fatal(err)
	}
	idx, err := fragindex.Build(st.out, spec)
	if err != nil {
		b.Fatal(err)
	}
	live, err := fragindex.NewShardedLive(idx, shards)
	if err != nil {
		b.Fatal(err)
	}
	return search.NewSharded(live, st.app)
}

// BenchmarkShardedSearchThroughput measures partitioned serving reads: the
// band request mix against a single-index engine (the baseline) and
// against sharded engines at S = 1/4/16. mode=latency runs one query per
// op (per-query latency: S=1 should sit at parity with single, since the
// pinned set is one snapshot); mode=batch runs the whole mix through
// ParallelSearch and reports aggregate searches/s. One query runs one queue
// over all S snapshots, so higher shard counts pay only the per-shard
// posting-list lookups and the wider dense tables; concurrency comes from
// the batch, not from inside one query.
func BenchmarkShardedSearchThroughput(b *testing.B) {
	st := workloadState(b, "Q2")
	var reqs []search.Request
	for _, kws := range [][]string{st.band.Cold, st.band.Warm, st.band.Hot} {
		for _, kw := range kws {
			reqs = append(reqs, search.Request{Keywords: []string{kw}, K: 10, SizeThreshold: 200})
		}
	}
	if len(reqs) == 0 {
		b.Fatal("no requests")
	}
	type searcher interface {
		Search(context.Context, search.Request) ([]search.Result, error)
		ParallelSearch(context.Context, []search.Request, int) []search.BatchResult
	}
	engines := []struct {
		name string
		eng  searcher
	}{{"single", st.eng}}
	for _, shards := range []int{1, 4, 16} {
		engines = append(engines, struct {
			name string
			eng  searcher
		}{fmt.Sprintf("shards=%d", shards), shardedBenchEngine(b, st, shards)})
	}
	for _, e := range engines {
		b.Run("mode=latency/"+e.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.eng.Search(context.Background(), reqs[i%len(reqs)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, e := range engines {
		b.Run("mode=batch/"+e.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, br := range e.eng.ParallelSearch(context.Background(), reqs, 0) {
					if br.Err != nil {
						b.Fatal(br.Err)
					}
				}
			}
			b.ReportMetric(float64(len(reqs)*b.N)/b.Elapsed().Seconds(), "searches/s")
		})
	}
}

// BenchmarkShardedApplyThroughput measures partitioned serving writes on
// the Q2 corpus: batches of 100 full-fragment updates applied through one
// LiveIndex (the single-writer baseline) versus routed across S = 1/4/16
// shards, where each touched shard folds its slice into one publish
// concurrently with its siblings — no global write lock. ns/change is the
// number to watch: per-shard posting lists, group directories, and shard
// maps are S× smaller (so each change's O(list) posting splice and each
// publish's CoW map clones shrink), and on multi-core the per-shard
// publishes overlap on top. Real (keyword-dense) fragments are the honest
// workload here: on a corpus of near-empty fragments the fixed per-shard
// publish floor dominates instead and routing buys little.
func BenchmarkShardedApplyThroughput(b *testing.B) {
	const batch = 100
	st := workloadState(b, "Q2")
	spec, ids, counts := corpusFragments(b, st)
	for _, shards := range []int{0, 1, 4, 16} { // 0 = single-index baseline
		name := "single"
		if shards > 0 {
			name = fmt.Sprintf("shards=%d", shards)
		}
		b.Run(name, func(b *testing.B) {
			idx, err := fragindex.Build(st.out, spec)
			if err != nil {
				b.Fatal(err)
			}
			var (
				applyFn func([]crawl.Delta) error
				gcFn    func() error
			)
			if shards == 0 {
				live := fragindex.NewLive(idx)
				applyFn = func(ds []crawl.Delta) error { _, err := live.ApplyBatch(context.Background(), ds); return err }
				gcFn = func() error { _, err := live.CompactIfNeeded(context.Background(), 0.5); return err }
			} else {
				live, err := fragindex.NewShardedLive(idx, shards)
				if err != nil {
					b.Fatal(err)
				}
				applyFn = func(ds []crawl.Delta) error { _, err := live.ApplyBatch(context.Background(), ds); return err }
				gcFn = func() error { _, err := live.CompactIfNeeded(context.Background(), 0.5); return err }
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ds := make([]crawl.Delta, batch)
				for j := 0; j < batch; j++ {
					id := ids[(i*batch+j)%len(ids)]
					key := id.Key()
					ds[j] = crawl.Delta{Changes: []crawl.FragmentChange{{
						Op: crawl.OpUpdateFragment, ID: id,
						TermCounts: counts[key], TotalTerms: st.out.FragmentTerms[key],
					}}}
				}
				if err := applyFn(ds); err != nil {
					b.Fatal(err)
				}
				// Periodic snapshot GC, as a production apply loop runs it.
				if i%64 == 63 {
					if err := gcFn(); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/change")
		})
	}
}

// corpusFragments returns a workload's index spec, its crawled fragment
// identifiers (sorted), and each fragment's keyword counts keyed by
// fragment key.
func corpusFragments(b *testing.B, st *benchState) (fragindex.Spec, []fragment.ID, map[string]map[string]int64) {
	b.Helper()
	bound, err := st.app.Bound()
	if err != nil {
		b.Fatal(err)
	}
	spec, err := fragindex.SpecFromBound(bound)
	if err != nil {
		b.Fatal(err)
	}
	counts := make(map[string]map[string]int64)
	for kw, ps := range st.out.Inverted {
		for _, p := range ps {
			m, ok := counts[p.FragKey]
			if !ok {
				m = make(map[string]int64)
				counts[p.FragKey] = m
			}
			m[kw] = p.TF
		}
	}
	ids, err := st.out.Fragments()
	if err != nil {
		b.Fatal(err)
	}
	return spec, ids, counts
}

// foldStream draws a closed-loop writer's deltas on a crawled corpus:
// ≈ 70 % updates that give a crawled fragment another fragment's keyword
// statistics, 15 % inserts of fresh fragments, 15 % removals of earlier
// inserts. Every update and removal leaves a tombstoned ref behind.
type foldStream struct {
	rng      *rand.Rand
	ids      []fragment.ID
	counts   map[string]map[string]int64
	terms    map[string]int64
	inserted []fragment.ID
	nextKey  int64
}

func newFoldStream(b *testing.B, st *benchState) (*foldStream, fragindex.Spec) {
	spec, ids, counts := corpusFragments(b, st)
	return &foldStream{
		rng:     rand.New(rand.NewSource(benchSeed)),
		ids:     ids,
		counts:  counts,
		terms:   st.out.FragmentTerms,
		nextKey: int64(1) << 40, // past every generated key, so inserts never collide
	}, spec
}

// next draws one delta of n changes, each on a distinct fragment.
func (f *foldStream) next(n int) crawl.Delta {
	var d crawl.Delta
	var added []fragment.ID
	touched := make(map[int]bool, n)
	for len(d.Changes) < n {
		donor := f.ids[f.rng.Intn(len(f.ids))].Key()
		ch := crawl.FragmentChange{TermCounts: f.counts[donor], TotalTerms: f.terms[donor]}
		switch p := f.rng.Float64(); {
		case p < 0.15 && len(f.inserted) > 0:
			k := f.rng.Intn(len(f.inserted))
			ch = crawl.FragmentChange{Op: crawl.OpRemoveFragment, ID: f.inserted[k]}
			f.inserted[k] = f.inserted[len(f.inserted)-1]
			f.inserted = f.inserted[:len(f.inserted)-1]
		case p < 0.30:
			// A fresh first selection value (Q2's is an integer key);
			// the others are the donor's, so they stay in domain.
			ch.Op, ch.ID = crawl.OpInsertFragment, append(fragment.ID(nil), f.ids[f.rng.Intn(len(f.ids))]...)
			ch.ID[0] = relation.Int(f.nextKey)
			f.nextKey++
			added = append(added, ch.ID)
		default:
			ti := f.rng.Intn(len(f.ids))
			if touched[ti] {
				continue
			}
			touched[ti] = true
			ch.Op, ch.ID = crawl.OpUpdateFragment, f.ids[ti]
		}
		d.Changes = append(d.Changes, ch)
	}
	f.inserted = append(f.inserted, added...) // removable from the next delta on
	return d
}

// BenchmarkFoldQ2 measures the in-memory fold and publish of a serving
// writer on the real Q2 corpus: two shards, 8-change applies drawn by
// foldStream, and a snapshot GC pass (CompactIfNeeded at 1/4) every 32
// applies. Real fragments touch a few hundred keywords per apply, so this
// sees the posting-directory and posting-list copies a publish pays, which
// BenchmarkApplyPublishCost's two-keyword fragments cannot. B/op is per
// 8-change apply, and so are the copy counts beside it: metadata chunks,
// posting lists and equality groups cloned (ApplyStats, summed over both
// shards).
func BenchmarkFoldQ2(b *testing.B) {
	const perApply = 8
	st := workloadState(b, "Q2")
	fold, spec := newFoldStream(b, st)
	idx, err := fragindex.Build(st.out, spec)
	if err != nil {
		b.Fatal(err)
	}
	live, err := fragindex.NewShardedLive(idx, 2)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	var chunks, lists, groups int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats, err := live.Apply(ctx, fold.next(perApply))
		if err != nil {
			b.Fatal(err)
		}
		chunks += stats.Total.ClonedChunks
		lists += stats.Total.ClonedLists
		groups += stats.Total.ClonedGroups
		if i%32 == 31 {
			if _, err := live.CompactIfNeeded(ctx, 0.25); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*perApply), "ns/change")
	b.ReportMetric(float64(chunks)/float64(b.N), "clonedChunks/op")
	b.ReportMetric(float64(lists)/float64(b.N), "clonedLists/op")
	b.ReportMetric(float64(groups)/float64(b.N), "clonedGroups/op")
}

// BenchmarkCheckpointQ2 measures the three bulk passes over a whole index
// on the Q2 corpus at S = 2: one shard's Dump (what every checkpoint
// writes) and one shard's snapshot GC (CompactIfNeeded at ratio 0, so it
// always rebuilds), each on a shard foldStream has aged to ≈ 20 % dead
// refs, and the 2-way partition of the freshly built index that Open runs
// at startup. Each reports ms/op; B/op is per pass.
func BenchmarkCheckpointQ2(b *testing.B) {
	const deadShare = 0.2
	st := workloadState(b, "Q2")
	fold, spec := newFoldStream(b, st)
	build := func() *fragindex.Index {
		idx, err := fragindex.Build(st.out, spec)
		if err != nil {
			b.Fatal(err)
		}
		return idx
	}
	ctx := context.Background()
	live, err := fragindex.NewShardedLive(build(), 2)
	if err != nil {
		b.Fatal(err)
	}
	shard := live.Shard(0)
	// age folds deltas until shard 0 holds deadShare tombstoned refs.
	age := func() {
		for {
			s := shard.Snapshot()
			if float64(s.NumRefs()-s.NumFragments()) >= deadShare*float64(s.NumRefs()) {
				return
			}
			if _, err := live.Apply(ctx, fold.next(8)); err != nil {
				b.Fatal(err)
			}
		}
	}
	age()
	ms := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N), "ms/op")
	}
	b.Run("dump", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if d := shard.Dump(); len(d.FragKeys) == 0 {
				b.Fatal("empty dump")
			}
		}
		ms(b)
	})
	b.Run("compact", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			age()
			b.StartTimer()
			if ran, err := shard.CompactIfNeeded(ctx, 0); err != nil || !ran {
				b.Fatalf("compaction ran %v: %v", ran, err)
			}
		}
		ms(b)
	})
	b.Run("partition", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			idx := build()
			b.StartTimer()
			if _, err := fragindex.NewShardedLive(idx, 2); err != nil {
				b.Fatal(err)
			}
		}
		ms(b)
	})
}

// BenchmarkAblation_NaiveVsFragment compares §IV's "intuitive approach"
// (index whole db-pages) with the fragment index it motivates, on Q1.
func BenchmarkAblation_NaiveVsFragment(b *testing.B) {
	st := workloadState(b, "Q1")
	bound, err := st.app.Bound()
	if err != nil {
		b.Fatal(err)
	}
	spec, err := fragindex.SpecFromBound(bound)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("fragment", func(b *testing.B) {
		var idx *fragindex.Index
		for i := 0; i < b.N; i++ {
			idx, err = fragindex.Build(st.out, spec)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(idx.NumFragments()), "units")
	})
	b.Run("naive", func(b *testing.B) {
		var n *baseline.NaivePageIndex
		for i := 0; i < b.N; i++ {
			n, err = baseline.BuildNaive(st.out, spec, baseline.NaiveOptions{})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(n.Stats().Pages), "units")
		b.ReportMetric(float64(n.Stats().Postings), "postings")
	})
}

// BenchmarkAblation_ReduceTasks reproduces §VII-A's cluster-size
// sensitivity: varying reduce tasks while map input stays fixed changes
// little because the jobs are map/shuffle bound (paper: 3–8%).
func BenchmarkAblation_ReduceTasks(b *testing.B) {
	st := workloadState(b, "Q2")
	bound, err := st.app.Bound()
	if err != nil {
		b.Fatal(err)
	}
	for _, tasks := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("reduce=%d", tasks), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := crawl.Integrated(context.Background(), st.db, bound,
					crawl.Options{ReduceTasks: tasks})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_GraphIncrementalVsBatch compares §VI-A's incremental
// fragment-graph construction against the batch build.
func BenchmarkAblation_GraphIncrementalVsBatch(b *testing.B) {
	st := workloadState(b, "Q1")
	bound, err := st.app.Bound()
	if err != nil {
		b.Fatal(err)
	}
	spec, err := fragindex.SpecFromBound(bound)
	if err != nil {
		b.Fatal(err)
	}
	// Per-fragment term counts for incremental insertion.
	counts := make(map[string]map[string]int64)
	for kw, ps := range st.out.Inverted {
		for _, p := range ps {
			m, ok := counts[p.FragKey]
			if !ok {
				m = make(map[string]int64)
				counts[p.FragKey] = m
			}
			m[kw] = p.TF
		}
	}
	ids, err := st.out.Fragments()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := fragindex.Build(st.out, spec); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			idx, err := fragindex.New(spec)
			if err != nil {
				b.Fatal(err)
			}
			for _, id := range ids {
				key := id.Key()
				if _, err := idx.InsertFragment(id, counts[key], st.out.FragmentTerms[key]); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkAblation_CandidateLimit measures the paper's partial
// inverted-list read (§II: "web pages with higher TF values … can be
// retrieved from an initial part of Lw"): hot-keyword searches with the
// full posting list versus a bounded candidate prefix.
func BenchmarkAblation_CandidateLimit(b *testing.B) {
	st := workloadState(b, "Q2")
	if len(st.band.Hot) == 0 {
		b.Fatal("no hot keywords")
	}
	for _, limit := range []int{0, 100, 1000} {
		name := "full"
		if limit > 0 {
			name = fmt.Sprintf("limit=%d", limit)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kw := st.band.Hot[i%len(st.band.Hot)]
				_, err := st.eng.Search(context.Background(), search.Request{
					Keywords: []string{kw}, K: 10, SizeThreshold: 200,
					CandidateLimit: limit,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExample7_Fooddb runs the paper's running-example search (burger,
// k=2, s=20) end to end on a prebuilt index.
func BenchmarkExample7_Fooddb(b *testing.B) {
	db := fooddb.New()
	app, err := webapp.Analyze(fooddb.ServletSource, fooddb.BaseURL)
	if err != nil {
		b.Fatal(err)
	}
	if err := app.Bind(db); err != nil {
		b.Fatal(err)
	}
	bound, err := app.Bound()
	if err != nil {
		b.Fatal(err)
	}
	out, err := crawl.Reference(db, bound)
	if err != nil {
		b.Fatal(err)
	}
	spec, err := fragindex.SpecFromBound(bound)
	if err != nil {
		b.Fatal(err)
	}
	idx, err := fragindex.Build(out, spec)
	if err != nil {
		b.Fatal(err)
	}
	engine := search.New(idx, app)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := engine.Search(context.Background(), search.Request{
			Keywords: []string{"burger"}, K: 2, SizeThreshold: 20,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(results) != 2 {
			b.Fatalf("results = %d", len(results))
		}
	}
}

// BenchmarkRelationalKeywordBaseline measures the §II related-work recipe
// on fooddb for comparison with Example 7's fragment-based search.
func BenchmarkRelationalKeywordBaseline(b *testing.B) {
	db := fooddb.New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := baseline.RelationalKeywordSearch(db, []string{"burger"})
		if err != nil {
			b.Fatal(err)
		}
		if len(results) != 3 {
			b.Fatalf("results = %d", len(results))
		}
	}
}

// BenchmarkDurableApplyThroughput prices the write-ahead journal: the same
// single-fragment update stream applied through a LiveIndex with no
// journal (the in-memory ceiling), with an interval-synced journal (an
// append per publish, fsync amortized on a timer), and with SyncAlways (an
// fsync inside every publish — the full crash-safety contract). applies/sec
// is the headline; the gap between interval and always is what one fsync
// per acknowledged publish costs on this disk.
func BenchmarkDurableApplyThroughput(b *testing.B) {
	const n = 100_000
	modes := []struct {
		name   string
		policy *durable.SyncPolicy
	}{
		{"journal=off", nil},
		{"journal=interval", &durable.SyncPolicy{Mode: durable.SyncInterval, Interval: 50 * time.Millisecond}},
		{"journal=always", &durable.SyncPolicy{Mode: durable.SyncAlways}},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			live, ids := syntheticLive(b, n)
			if m.policy != nil {
				st, err := durable.Open(context.Background(), b.TempDir(), *m.policy)
				if err != nil {
					b.Fatal(err)
				}
				if err := st.Init(context.Background(), []*fragindex.Dump{live.Dump()}); err != nil {
					b.Fatal(err)
				}
				defer st.Close()
				live.SetPublishHook(func(ctx context.Context, d crawl.Delta, epoch uint64) error {
					return st.Append(ctx, 0, d, epoch)
				})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				at := i % len(ids)
				_, err := live.Apply(context.Background(), crawl.Delta{Changes: []crawl.FragmentChange{{
					Op: crawl.OpUpdateFragment, ID: ids[at],
					TermCounts: syntheticCounts(at, i+1), TotalTerms: 3,
				}}})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "applies/sec")
		})
	}
}

// serveBenchHandle opens a serving handle (the dash.Open surface) over the
// bench corpus with the given shard count and serving options.
func serveBenchHandle(b *testing.B, st *benchState, shards int, opts ...Option) Handle {
	b.Helper()
	h, err := Open(context.Background(), st.idx, st.app, append([]Option{WithShards(shards)}, opts...)...)
	if err != nil {
		b.Fatal(err)
	}
	return h
}

// servePairs builds a large population of two-keyword requests from the
// band keywords — enough distinct queries that a "cold" stream can run for
// the whole benchmark without re-touching an earlier key.
func servePairs(st *benchState) []Request {
	var kws []string
	kws = append(kws, st.band.Hot...)
	kws = append(kws, st.band.Warm...)
	kws = append(kws, st.band.Cold...)
	var reqs []Request
	for i := 0; i < len(kws); i++ {
		for j := i + 1; j < len(kws); j++ {
			reqs = append(reqs, Request{Keywords: []string{kws[i], kws[j]}, K: 10, SizeThreshold: 200})
		}
	}
	return reqs
}

// zipfCum precomputes the cumulative 1/rank weights a Zipf-skewed pick
// samples against.
func zipfCum(n int) []float64 {
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1 / float64(i+1)
		cum[i] = total
	}
	return cum
}

func zipfPick(rng *rand.Rand, cum []float64) int {
	x := rng.Float64() * cum[len(cum)-1]
	for i, c := range cum {
		if x <= c {
			return i
		}
	}
	return len(cum) - 1
}

// p99ms reports the 99th-percentile latency in milliseconds.
func p99ms(d []time.Duration) float64 {
	if len(d) == 0 {
		return 0
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return float64(d[int(float64(len(d)-1)*0.99)]) / 1e6
}

// BenchmarkServeOverload measures the serving layer under load on the Q2
// corpus, S = 1 and 4:
//
//   - mix/hit=P: a Zipf-skewed stream where P% of requests target a warm
//     working set (cache hits) and the rest are never-repeating queries —
//     the ns/op curve across P is the cache's value on a skewed workload.
//   - hot/cached vs hot/uncached: the same single hot query with and
//     without the result cache — the cached hot path must be >=10x faster
//     while staying byte-identical (asserted by the serving tests).
//   - overload: an open-loop arrival stream offered at ~2x the measured
//     serving capacity, every request under a deadline, admission control
//     capped at GOMAXPROCS — reports accepted_p99_ms (bounded by the
//     deadline), rejected_p99_ms (shedding must be fast, <5ms), and
//     shed_frac (~half the offered load under 2x overload).
func BenchmarkServeOverload(b *testing.B) {
	st := workloadState(b, "Q2")
	pool := servePairs(st)
	if len(pool) < 256 {
		b.Fatal("request population too small")
	}
	ctx := context.Background()

	for _, shards := range []int{1, 4} {
		hot := pool[:32]
		cold := pool[32:]
		cum := zipfCum(len(hot))

		for _, hitPct := range []int{0, 50, 95} {
			b.Run(fmt.Sprintf("mix/shards=%d/hit=%d", shards, hitPct), func(b *testing.B) {
				h := serveBenchHandle(b, st, shards, WithResultCache(64<<20))
				cs := h.(CachedSearcher)
				for _, r := range hot {
					if _, _, err := cs.SearchStatus(ctx, r); err != nil {
						b.Fatal(err)
					}
				}
				rng := rand.New(rand.NewSource(7))
				next := 0
				hits := 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var req Request
					if rng.Intn(100) < hitPct {
						req = hot[zipfPick(rng, cum)]
					} else {
						// Cycle the cold pool but make every pass key-distinct:
						// a huge, never-binding CandidateLimit changes the cache
						// key without changing the work, so cold stays cold.
						req = cold[next%len(cold)]
						req.CandidateLimit = 1<<20 + next
						next++
					}
					_, status, err := cs.SearchStatus(ctx, req)
					if err != nil {
						b.Fatal(err)
					}
					if status == CacheHit {
						hits++
					}
				}
				b.ReportMetric(float64(hits)/float64(b.N), "hit_frac")
			})
		}

		hotReq := hot[0]
		b.Run(fmt.Sprintf("hot/shards=%d/cached", shards), func(b *testing.B) {
			h := serveBenchHandle(b, st, shards, WithResultCache(64<<20))
			cs := h.(CachedSearcher)
			if _, _, err := cs.SearchStatus(ctx, hotReq); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := cs.SearchStatus(ctx, hotReq); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("hot/shards=%d/uncached", shards), func(b *testing.B) {
			h := serveBenchHandle(b, st, shards)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := h.Search(ctx, hotReq); err != nil {
					b.Fatal(err)
				}
			}
		})

		b.Run(fmt.Sprintf("overload/shards=%d", shards), func(b *testing.B) {
			procs := runtime.GOMAXPROCS(0)
			h := serveBenchHandle(b, st, shards,
				WithResultCache(64<<20),
				WithAdmissionControl(AdmissionOptions{MaxInFlight: procs, MinBudget: 50 * time.Microsecond}))
			cs := h.(CachedSearcher)

			// Calibrate mean uncached latency to set the offered rate at
			// ~2x capacity and the per-request deadline at 8x the mean.
			calStart := time.Now()
			const calN = 64
			for i := 0; i < calN; i++ {
				req := cold[i%len(cold)]
				req.CandidateLimit = 1 << 19 // distinct key region from the run below
				if _, err := h.Search(ctx, req); err != nil {
					b.Fatal(err)
				}
			}
			mean := time.Since(calStart) / calN
			if mean < 50*time.Microsecond {
				mean = 50 * time.Microsecond
			}
			deadline := 8 * mean
			workers := 2 * procs
			// Each worker offers one request per mean service time:
			// aggregate arrival rate = workers/mean = 2x what GOMAXPROCS
			// cores can serve — open-loop, arrivals never wait on completions.
			interval := mean
			per := b.N/workers + 1

			var nonce atomic.Int64
			lats := make([][2][]time.Duration, workers) // [accepted, rejected]
			var timeouts atomic.Int64
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					start := time.Now()
					for j := 0; j < per; j++ {
						if d := time.Until(start.Add(time.Duration(j) * interval)); d > 0 {
							time.Sleep(d)
						}
						n := int(nonce.Add(1))
						req := cold[n%len(cold)]
						req.CandidateLimit = 1<<21 + n
						rctx, cancel := context.WithTimeout(ctx, deadline)
						q0 := time.Now()
						_, _, err := cs.SearchStatus(rctx, req)
						lat := time.Since(q0)
						cancel()
						switch {
						case err == nil:
							lats[w][0] = append(lats[w][0], lat)
						case errors.Is(err, ErrOverloaded):
							lats[w][1] = append(lats[w][1], lat)
						default:
							timeouts.Add(1)
						}
					}
				}(w)
			}
			wg.Wait()
			b.StopTimer()

			var accepted, rejected []time.Duration
			for w := range lats {
				accepted = append(accepted, lats[w][0]...)
				rejected = append(rejected, lats[w][1]...)
			}
			total := len(accepted) + len(rejected) + int(timeouts.Load())
			b.ReportMetric(p99ms(accepted), "accepted_p99_ms")
			b.ReportMetric(p99ms(rejected), "rejected_p99_ms")
			b.ReportMetric(float64(len(rejected))/float64(total), "shed_frac")
			b.ReportMetric(float64(timeouts.Load())/float64(total), "timeout_frac")
			b.ReportMetric(float64(deadline)/1e6, "deadline_ms")
		})
	}
}
