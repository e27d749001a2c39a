// Command dashbench regenerates every table and figure of the paper's
// evaluation section (§VII) on the scaled-down TPC-H workloads:
//
//	dashbench -experiment table2   # dataset sizes (Table II)
//	dashbench -experiment table3   # application queries (Table III)
//	dashbench -experiment fig10    # SW vs INT crawl+index time per phase
//	dashbench -experiment table4   # fragment graph build stats
//	dashbench -experiment fig11    # top-k search latency sweep
//	dashbench -experiment parallel # concurrent search throughput scaling
//	dashbench -experiment sharded  # partitioned serving: one queue over the shards + routed applies
//	dashbench -experiment ablation # naive page index vs fragment index
//	dashbench -experiment all      # everything above
//
// Absolute numbers differ from the paper (in-process MapReduce on scaled
// data, not a 4-node Hadoop cluster); the shapes — who wins, where the
// crossovers fall — are the reproduction target. See EXPERIMENTS.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"text/tabwriter"
	"time"

	"repro/internal/baseline"
	"repro/internal/crawl"
	"repro/internal/fragindex"
	"repro/internal/harness"
	"repro/internal/search"
	"repro/internal/tpch"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dashbench:", err)
		os.Exit(1)
	}
}

type config struct {
	experiment string
	scales     []tpch.Scale
	seed       int64
	bandSize   int
	reduce     int
	netMBps    int
}

func run(args []string) error {
	fs := flag.NewFlagSet("dashbench", flag.ContinueOnError)
	experiment := fs.String("experiment", "all", "table1|table2|table3|fig10|table4|fig11|ablation|all")
	scaleName := fs.String("scale", "all", "small|medium|large|all")
	seed := fs.Int64("seed", 42, "dataset generator seed")
	bandSize := fs.Int("searches", 30, "keywords per hot/warm/cold band (paper: 30)")
	reduce := fs.Int("reduce", 0, "reduce tasks per MR job (0 = GOMAXPROCS)")
	netMBps := fs.Int("netmbps", 20, "modeled effective cluster transport MB/s for Fig. 10")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := config{experiment: *experiment, seed: *seed, bandSize: *bandSize,
		reduce: *reduce, netMBps: *netMBps}
	if *scaleName == "all" {
		cfg.scales = tpch.Scales()
	} else {
		s, err := tpch.ScaleByName(*scaleName)
		if err != nil {
			return err
		}
		cfg.scales = []tpch.Scale{s}
	}

	ctx := context.Background()
	experiments := map[string]func(context.Context, config) error{
		"table1":   table1,
		"table2":   table2,
		"table3":   table3,
		"fig10":    fig10,
		"table4":   table4,
		"fig11":    fig11,
		"parallel": parallelThroughput,
		"sharded":  shardedThroughput,
		"ablation": ablation,
		"coverage": coverage,
	}
	if cfg.experiment == "all" {
		for _, name := range []string{"table1", "table2", "table3", "fig10", "table4", "fig11", "parallel", "sharded", "ablation", "coverage"} {
			if err := experiments[name](ctx, cfg); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		return nil
	}
	fn, ok := experiments[cfg.experiment]
	if !ok {
		return fmt.Errorf("unknown experiment %q", cfg.experiment)
	}
	return fn(ctx, cfg)
}

func header(title string) {
	fmt.Printf("\n=== %s ===\n", title)
}

// table1 prints the experiment parameter grid (paper Table I).
func table1(_ context.Context, cfg config) error {
	header("Table I — experiment parameters")
	ks, ss := harness.Fig11Grid()
	fmt.Printf("datasets:            small, medium, large\n")
	fmt.Printf("application queries: Q1, Q2, Q3\n")
	fmt.Printf("k (results):         %v\n", ks)
	fmt.Printf("s (page threshold):  %v\n", ss)
	fmt.Printf("keywords:            cold (bottom 10%%), warm (middle 10%%), hot (top 10%%), %d each\n", cfg.bandSize)
	return nil
}

// table2 prints per-relation dataset sizes (paper Table II).
func table2(_ context.Context, cfg config) error {
	header("Table II — datasets (rows / encoded bytes)")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "dataset\tR\tN\tC\tO\tL\tP")
	for _, scale := range cfg.scales {
		db := tpch.Generate(scale, cfg.seed)
		cells := map[string]string{}
		for _, st := range db.Stats() {
			cells[st.Name] = fmt.Sprintf("%d/%s", st.Rows, byteSize(st.Bytes))
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t%s\t%s\n", scale.Name,
			cells["region"], cells["nation"], cells["customer"],
			cells["orders"], cells["lineitem"], cells["part"])
	}
	return w.Flush()
}

// table3 prints the application queries (paper Table III).
func table3(_ context.Context, _ config) error {
	header("Table III — application queries")
	for _, name := range tpch.QueryNames() {
		app, err := tpch.App(name)
		if err != nil {
			return err
		}
		fmt.Printf("%s: %s\n", name, app.Query)
	}
	return nil
}

// fig10 reproduces the crawl+index elapsed-time comparison with per-phase
// breakdown (paper Fig. 10). Two elapsed columns are reported: the measured
// in-process wall time, and a modeled cluster time that adds the shuffle
// volume divided by an effective inter-node bandwidth — the transmission
// cost a Hadoop deployment pays that an in-process engine does not. The
// paper's SW-vs-INT ordering is a statement about that shuffled volume.
func fig10(ctx context.Context, cfg config) error {
	header("Fig. 10 — database crawling and fragment indexing (SW vs INT)")
	fmt.Printf("modeled cluster column = measured + shuffleBytes/%dMBps effective transport\n",
		cfg.netMBps)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "dataset\tquery\talg\tmeasured\tmodeled-cluster\tphase1\tphase2\tphase3\tshuffleMB")
	opts := crawl.Options{ReduceTasks: cfg.reduce}
	for _, scale := range cfg.scales {
		for _, qname := range tpch.QueryNames() {
			wl := harness.Workload{Scale: scale, Seed: cfg.seed, Query: qname}
			db, app, err := wl.Setup()
			if err != nil {
				return err
			}
			for _, alg := range []crawl.Algorithm{crawl.AlgStepwise, crawl.AlgIntegrated} {
				_, row, err := harness.RunCrawl(ctx, db, app, alg, opts, scale.Name)
				if err != nil {
					return err
				}
				modeled := row.Total + time.Duration(
					float64(row.ShuffledBytes)/(float64(cfg.netMBps)*1e6)*float64(time.Second))
				fmt.Fprintf(w, "%s\t%s\t%s\t%v\t%v\t%s\t%s\t%s\t%.1f\n",
					scale.Name, qname, shortAlg(alg), row.Total.Round(time.Millisecond),
					modeled.Round(time.Millisecond),
					phaseCell(row, 0), phaseCell(row, 1), phaseCell(row, 2),
					float64(row.ShuffledBytes)/1e6)
			}
		}
	}
	return w.Flush()
}

// table4 reproduces the fragment-graph construction stats (paper Table IV):
// build time, fragment count, and average keywords per fragment for each
// query on the medium dataset (or the selected scales).
func table4(ctx context.Context, cfg config) error {
	header("Table IV — fragment graph building (per query)")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "dataset\tquery\tbuild time\t#fragments\tavg #keywords")
	for _, scale := range cfg.scales {
		for _, qname := range tpch.QueryNames() {
			wl := harness.Workload{Scale: scale, Seed: cfg.seed, Query: qname}
			db, app, err := wl.Setup()
			if err != nil {
				return err
			}
			out, _, err := harness.RunCrawl(ctx, db, app, crawl.AlgIntegrated,
				crawl.Options{ReduceTasks: cfg.reduce}, scale.Name)
			if err != nil {
				return err
			}
			bound, err := app.Bound()
			if err != nil {
				return err
			}
			_, row, err := harness.BuildGraph(out, bound, qname)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%s\t%s\t%v\t%d\t%.1f\n",
				scale.Name, qname, row.BuildTime.Round(time.Microsecond),
				row.Fragments, row.AvgKeywords)
		}
	}
	return w.Flush()
}

// fig11 reproduces the top-k search latency sweep (paper Fig. 11): Q2 on
// the selected scale(s), cold/warm/hot keyword bands, k × s grid.
func fig11(ctx context.Context, cfg config) error {
	header("Fig. 11 — top-k search latency (Q2)")
	for _, scale := range cfg.scales {
		wl := harness.Workload{Scale: scale, Seed: cfg.seed, Query: "Q2"}
		engine, _, _, err := harness.PrepareEngine(ctx, wl, crawl.Options{ReduceTasks: cfg.reduce})
		if err != nil {
			return err
		}
		bands := harness.KeywordBands(engine.Snapshot(), cfg.bandSize)
		ks, ss := harness.Fig11Grid()
		points, err := harness.RunSearchSweep(engine, bands, ks, ss)
		if err != nil {
			return err
		}
		fmt.Printf("dataset %s: %d fragments, %d keywords\n",
			scale.Name, engine.Snapshot().NumFragments(), engine.Snapshot().NumKeywords())
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "band\ts\tk=1\tk=5\tk=10\tk=20")
		for _, band := range []string{"cold", "warm", "hot"} {
			for _, s := range ss {
				cells := map[int]time.Duration{}
				for _, p := range points {
					if p.Band == band && p.S == s {
						cells[p.K] = p.Avg
					}
				}
				fmt.Fprintf(w, "%s\t%d\t%v\t%v\t%v\t%v\n", band, s,
					cells[1].Round(time.Microsecond), cells[5].Round(time.Microsecond),
					cells[10].Round(time.Microsecond), cells[20].Round(time.Microsecond))
			}
		}
		if err := w.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// parallelThroughput measures concurrent search scaling: a fixed batch of
// requests drawn from all three keyword temperature bands, evaluated over
// 1..GOMAXPROCS worker goroutines sharing one engine via ParallelSearch.
// This is the serving-path headroom number: QPS at each worker count and
// the speedup over serial evaluation.
func parallelThroughput(ctx context.Context, cfg config) error {
	header("Parallel — concurrent search throughput (Q2)")
	for _, scale := range cfg.scales {
		wl := harness.Workload{Scale: scale, Seed: cfg.seed, Query: "Q2"}
		engine, _, _, err := harness.PrepareEngine(ctx, wl, crawl.Options{ReduceTasks: cfg.reduce})
		if err != nil {
			return err
		}
		bands := harness.KeywordBands(engine.Snapshot(), cfg.bandSize)
		var reqs []search.Request
		for _, kws := range [][]string{bands.Cold, bands.Warm, bands.Hot} {
			for _, kw := range kws {
				reqs = append(reqs, search.Request{Keywords: []string{kw}, K: 10, SizeThreshold: 200})
			}
		}
		if len(reqs) == 0 {
			continue
		}
		// Repeat the band mix so each measurement runs long enough to time.
		for len(reqs) < 256 {
			reqs = append(reqs, reqs...)
		}
		fmt.Printf("dataset %s: %d requests over shared engine\n", scale.Name, len(reqs))
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "workers\telapsed\tQPS\tspeedup")
		var serial time.Duration
		workerCounts := []int{1, 2, 4, 8}
		if n := runtime.GOMAXPROCS(0); n > 8 {
			workerCounts = append(workerCounts, n)
		}
		for _, workers := range workerCounts {
			start := time.Now()
			for _, br := range engine.ParallelSearch(context.Background(), reqs, workers) {
				if br.Err != nil {
					return br.Err
				}
			}
			elapsed := time.Since(start)
			if workers == 1 {
				serial = elapsed
			}
			speedup := float64(serial) / float64(elapsed)
			fmt.Fprintf(w, "%d\t%v\t%.0f\t%.2fx\n", workers,
				elapsed.Round(time.Millisecond),
				float64(len(reqs))/elapsed.Seconds(), speedup)
		}
		if err := w.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// shardedThroughput measures partitioned serving (Q2): the same request
// batch evaluated by a single-index engine and by sharded engines at
// growing shard counts, plus routed apply throughput — the
// multi-core scaling story in one table. On a single-core host the shard
// counts land near parity; the structure (per-shard publish cycles, no
// global write lock) is what scales on real hardware.
func shardedThroughput(ctx context.Context, cfg config) error {
	header("Sharded — partitioned serving throughput (Q2)")
	for _, scale := range cfg.scales {
		wl := harness.Workload{Scale: scale, Seed: cfg.seed, Query: "Q2"}
		db, app, err := wl.Setup()
		if err != nil {
			return err
		}
		out, _, err := harness.RunCrawl(ctx, db, app, crawl.AlgIntegrated,
			crawl.Options{ReduceTasks: cfg.reduce}, scale.Name)
		if err != nil {
			return err
		}
		bound, err := app.Bound()
		if err != nil {
			return err
		}
		spec, err := fragindex.SpecFromBound(bound)
		if err != nil {
			return err
		}
		buildIndex := func() (*fragindex.Index, error) { return fragindex.Build(out, spec) }

		idx, err := buildIndex()
		if err != nil {
			return err
		}
		single := search.New(idx, app)
		bands := harness.KeywordBands(single.Snapshot(), cfg.bandSize)
		var reqs []search.Request
		for _, kws := range [][]string{bands.Cold, bands.Warm, bands.Hot} {
			for _, kw := range kws {
				reqs = append(reqs, search.Request{Keywords: []string{kw}, K: 10, SizeThreshold: 200})
			}
		}
		if len(reqs) == 0 {
			continue
		}
		for len(reqs) < 256 {
			reqs = append(reqs, reqs...)
		}
		ids, err := out.Fragments()
		if err != nil {
			return err
		}
		counts := make(map[string]map[string]int64)
		for kw, ps := range out.Inverted {
			for _, p := range ps {
				m, ok := counts[p.FragKey]
				if !ok {
					m = make(map[string]int64)
					counts[p.FragKey] = m
				}
				m[kw] = p.TF
			}
		}
		const applyBatch = 100
		makeDeltas := func(round int) []crawl.Delta {
			ds := make([]crawl.Delta, applyBatch)
			for j := range ds {
				id := ids[(round*applyBatch+j)%len(ids)]
				key := id.Key()
				ds[j] = crawl.Delta{Changes: []crawl.FragmentChange{{
					Op: crawl.OpUpdateFragment, ID: id,
					TermCounts: counts[key], TotalTerms: out.FragmentTerms[key],
				}}}
			}
			return ds
		}
		const applyRounds = 20

		fmt.Printf("dataset %s: %d requests, apply batches of %d updates\n",
			scale.Name, len(reqs), applyBatch)
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "engine\tsearch elapsed\tQPS\tapply elapsed\tchanges/s")

		// Single-index baseline: ParallelSearch + single-writer ApplyBatch.
		start := time.Now()
		for _, br := range single.ParallelSearch(context.Background(), reqs, 0) {
			if br.Err != nil {
				return br.Err
			}
		}
		searchElapsed := time.Since(start)
		baseIdx, err := buildIndex()
		if err != nil {
			return err
		}
		baseLive := fragindex.NewLive(baseIdx)
		start = time.Now()
		for r := 0; r < applyRounds; r++ {
			if _, err := baseLive.ApplyBatch(context.Background(), makeDeltas(r)); err != nil {
				return err
			}
		}
		applyElapsed := time.Since(start)
		fmt.Fprintf(w, "single\t%v\t%.0f\t%v\t%.0f\n",
			searchElapsed.Round(time.Millisecond), float64(len(reqs))/searchElapsed.Seconds(),
			applyElapsed.Round(time.Millisecond),
			float64(applyRounds*applyBatch)/applyElapsed.Seconds())

		for _, shards := range []int{1, 4, 16} {
			sidx, err := buildIndex()
			if err != nil {
				return err
			}
			live, err := fragindex.NewShardedLive(sidx, shards)
			if err != nil {
				return err
			}
			se := search.NewSharded(live, app)
			start := time.Now()
			for _, br := range se.ParallelSearch(context.Background(), reqs, 0) {
				if br.Err != nil {
					return br.Err
				}
			}
			searchElapsed := time.Since(start)
			start = time.Now()
			for r := 0; r < applyRounds; r++ {
				if _, err := live.ApplyBatch(context.Background(), makeDeltas(r)); err != nil {
					return err
				}
			}
			applyElapsed := time.Since(start)
			fmt.Fprintf(w, "shards=%d\t%v\t%.0f\t%v\t%.0f\n", shards,
				searchElapsed.Round(time.Millisecond), float64(len(reqs))/searchElapsed.Seconds(),
				applyElapsed.Round(time.Millisecond),
				float64(applyRounds*applyBatch)/applyElapsed.Seconds())
		}
		if err := w.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// ablation compares the naive whole-page index (§IV's "intuitive approach")
// with Dash's fragment index on the small dataset, and reports result
// redundancy for both.
func ablation(ctx context.Context, cfg config) error {
	header("Ablation — naive page index vs fragment index (Q1, small)")
	wl := harness.Workload{Scale: tpch.Small, Seed: cfg.seed, Query: "Q1"}
	db, app, err := wl.Setup()
	if err != nil {
		return err
	}
	out, _, err := harness.RunCrawl(ctx, db, app, crawl.AlgIntegrated,
		crawl.Options{ReduceTasks: cfg.reduce}, "small")
	if err != nil {
		return err
	}
	bound, err := app.Bound()
	if err != nil {
		return err
	}
	spec, err := fragindex.SpecFromBound(bound)
	if err != nil {
		return err
	}

	fragStart := time.Now()
	idx, err := fragindex.Build(out, spec)
	if err != nil {
		return err
	}
	fragTime := time.Since(fragStart)

	naive, err := baseline.BuildNaive(out, spec, baseline.NaiveOptions{})
	if err != nil {
		return err
	}
	ns := naive.Stats()

	var fragPostings int
	for _, kw := range idx.Keywords() {
		fragPostings += idx.DF(kw)
	}
	fmt.Printf("fragment index: %d fragments, %d postings, build %v\n",
		idx.NumFragments(), fragPostings, fragTime.Round(time.Microsecond))
	fmt.Printf("naive pages:    %d pages, %d postings, %d indexed terms, build %v\n",
		ns.Pages, ns.Postings, ns.IndexedTerms, ns.BuildTime.Round(time.Microsecond))
	fmt.Printf("blowup:         %.1fx pages over fragments, %.1fx postings\n",
		float64(ns.Pages)/float64(idx.NumFragments()),
		float64(ns.Postings)/float64(fragPostings))

	// Result redundancy for a concentrated (cold) keyword: its content
	// lives in few fragments, so the naive index's top pages are the many
	// overlapping intervals containing them — the P1 ⊂ P2 problem of §I.
	bands := harness.KeywordBands(idx.Snapshot(), 5)
	if len(bands.Cold) > 0 {
		kw := bands.Cold[0]
		naiveTop := naive.Search([]string{kw}, 10)
		fmt.Printf("naive top-10 redundancy (keyword %q): %.2f (Jaccard)\n",
			kw, baseline.Redundancy(naiveTop))
		engine := search.New(idx, app)
		rs, err := engine.Search(context.Background(), search.Request{Keywords: []string{kw}, K: 10, SizeThreshold: 100})
		if err != nil {
			return err
		}
		fmt.Printf("dash top-%d redundancy: 0.00 by construction (overlap exclusion), %d results\n",
			len(rs), len(rs))
	}
	return nil
}

// coverage quantifies §I's collection argument: trial-query probing and
// proxy-cache harvesting versus Dash's database crawling, measured as web
// application invocations spent and fragment coverage achieved.
func coverage(ctx context.Context, cfg config) error {
	header("Coverage — §I collection approaches vs database crawling (Q1, small)")
	wl := harness.Workload{Scale: tpch.Small, Seed: cfg.seed, Query: "Q1"}
	db, app, err := wl.Setup()
	if err != nil {
		return err
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "approach\tinvocations\tpages\tempty\tduplicate\tfragment coverage")

	for _, budget := range []int{100, 1000, 10000} {
		c, err := baseline.NewCollector(db, app)
		if err != nil {
			return err
		}
		total, err := c.TotalFragments()
		if err != nil {
			return err
		}
		stats, err := c.ProbeCrawl(cfg.seed, budget)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "probe (budget %d)\t%d\t%d\t%d\t%d\t%d/%d (%.0f%%)\n",
			budget, stats.Invocations, stats.Pages, stats.EmptyResults,
			stats.DuplicatePages, stats.CoveredFragments, total,
			100*float64(stats.CoveredFragments)/float64(total))
	}
	for _, users := range []int{1000} {
		c, err := baseline.NewCollector(db, app)
		if err != nil {
			return err
		}
		total, err := c.TotalFragments()
		if err != nil {
			return err
		}
		stats, err := c.CacheCrawl(cfg.seed, users)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "proxy cache (%d user queries)\t%d\t%d\t%d\t%d\t%d/%d (%.0f%%)\n",
			users, stats.Invocations, stats.Pages, stats.EmptyResults,
			stats.DuplicatePages, stats.CoveredFragments, total,
			100*float64(stats.CoveredFragments)/float64(total))
	}

	// Dash: zero application invocations, complete coverage.
	out, _, err := harness.RunCrawl(ctx, db, app, crawl.AlgIntegrated,
		crawl.Options{ReduceTasks: cfg.reduce}, "small")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "dash database crawl\t0\t–\t0\t0\t%d/%d (100%%)\n",
		len(out.FragmentTerms), len(out.FragmentTerms))
	return w.Flush()
}

func shortAlg(a crawl.Algorithm) string {
	if a == crawl.AlgStepwise {
		return "SW"
	}
	return "INT"
}

func phaseCell(row harness.CrawlRow, i int) string {
	if i >= len(row.Phases) {
		return "-"
	}
	p := row.Phases[i]
	return fmt.Sprintf("%s=%v", p.Name, p.Metrics.Wall.Round(time.Millisecond))
}

func byteSize(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
