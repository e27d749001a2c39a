// Package dash is a search engine for database-generated dynamic web pages
// (db-pages), reproducing "Dash: A Novel Search Engine for Database-
// Generated Dynamic Web Pages" (Lee, Bankar, Zheng, Chow, Wang — ICDCS
// 2012).
//
// Db-pages are created on the fly by a web application from a backend
// database in response to query strings, so conventional crawlers never see
// them. Dash instead reverse-engineers the application: Analyze extracts
// its parameterized project-select-join query from servlet-style source;
// Build crawls the database with MapReduce-based algorithms, deriving
// disjoint db-page fragments and a fragment index (inverted fragment index
// + fragment graph); and Handle.Search assembles fragments into the k most
// relevant db-pages, returning the URLs that regenerate them.
//
// Quickstart:
//
//	app, _ := dash.Analyze(servletSource, "http://example.com/Search")
//	_ = app.Bind(db)
//	idx, stats, _ := dash.Build(ctx, db, app, dash.BuildOptions{})
//	eng, _ := dash.Open(ctx, idx, app) // takes ownership of idx
//	results, _ := eng.Search(ctx, dash.Request{
//	    Keywords: []string{"burger"}, K: 2, SizeThreshold: 20,
//	})
//	for _, r := range results {
//	    fmt.Println(r.URL) // e.g. http://example.com/Search?c=American&l=10&u=12
//	}
//
// # One contract, one engine
//
// Open returns a Handle — the Searcher + Maintainer contract — backed by
// one serving engine whose shape the options pick: the index partitioned
// into WithShards(n) independent publish cycles (one by default), plus
// optional layers — WithDataDir (durability), WithResultCache,
// WithAdmissionControl, WithReplicas (read routing). OpenReplica returns
// the same engine over a journal-tailing replica of a durable leader. Call
// sites written against the contract change shape without rewrites, and
// every shape returns byte-identical results for the same corpus. The
// value behind every Handle is a *ServingEngine: what lies beyond the
// contract (Queue/Flush, Checkpoint, the durability and replication
// reports, RouteSearch) is a method of it, reached with
// h.(*dash.ServingEngine), and a method whose layer is absent answers the
// handle mode's typed error or an empty report.
// Every method takes a context.Context first: searches honor cancellation
// cooperatively mid-assembly, batch fan-outs abandon queued work, and a
// cancelled apply publishes nothing in the failing cycle.
//
// # Serving while the database changes
//
// A db-page index is only useful while it tracks the database, so a
// handle serves lock-free searches against immutable epoch-swap snapshots
// while a writer folds database changes into the next snapshot and
// publishes it atomically. Searches in flight keep their pinned snapshot;
// new searches see the new version.
//
//	live, _ := dash.Open(ctx, idx, app) // takes ownership of idx
//	go serve(live)                 // live.Search from any goroutine
//
//	// Rows changed in the database: re-crawl only the affected
//	// partitions and swap in the patched index version.
//	report, _ := live.Recrawl(ctx, db, []dash.FragmentID{
//	    {relation.String("American"), relation.Int(9)},
//	})
//	fmt.Println(report.Total.Updated, "fragments refreshed")
//
// Recrawl derives a Delta (insert/remove/update per fragment) by executing
// the application query pinned to each affected partition; Apply publishes
// a Delta built by any other means. Both are transactional: on error —
// a cancelled context included — the serving snapshot is unchanged.
//
// Recrawl reads the partition's rows through hash indexes the Database
// keeps, which rely on rows never changing once appended. Change the
// database between recrawls in one of two ways: Table.Append new rows, or,
// to update or delete rows, assign the table a new Rows slice (or register
// a new table with Database.AddTable). Never edit a row's values in place
// (t.Rows[i][j] = v): the indexes cannot see it, and later recrawls and
// db-pages would answer from stale row positions.
//
// When changes arrive faster than they must become visible, batch them:
// ApplyBatch (or the Queue/Flush pair) coalesces any number of deltas into
// one published snapshot, paying a single publish — and a single
// copy-on-write pass over each touched fragment — for the whole batch.
//
// # Scaling across cores: shards
//
// When one index can no longer absorb the write rate, partition it:
//
//	sharded, _ := dash.Open(ctx, idx, app, dash.WithShards(8))
//
// Fragments are routed to shards by their equality-group key, so db-page
// assembly never crosses shards; a search runs one queue over one pinned
// snapshot per shard and answers exactly what the single index would,
// while deltas route to their shards and apply concurrently with no global
// write lock. See ARCHITECTURE.md's "Public
// API" section for the full option rules.
package dash

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/crawl"
	"repro/internal/fragindex"
	"repro/internal/fragment"
	"repro/internal/relation"
	"repro/internal/search"
	"repro/internal/webapp"
)

// Re-exported types: the facade is intentionally thin so downstream code
// can also import the internal packages' documentation vocabulary.
type (
	// Application is an analyzed web application: its parameterized PSJ
	// query plus bidirectional query-string logic.
	Application = webapp.Application
	// Binding maps an HTTP query-string field to a query parameter.
	Binding = webapp.Binding
	// Index is the fragment index (inverted fragment index + fragment
	// graph).
	Index = fragindex.Index
	// Request parameterizes one search: keywords W, result count k, and
	// db-page size threshold s.
	Request = search.Request
	// Result is one suggested db-page with its URL and relevance score.
	Result = search.Result
	// BatchResult is one request's outcome within a SearchBatch.
	BatchResult = search.BatchResult
	// FragRef identifies a fragment within an Index.
	FragRef = fragindex.FragRef
	// Snapshot is one immutable version of a fragment index; the whole
	// search read path runs against it lock-free.
	Snapshot = fragindex.Snapshot
	// ShardedLiveIndex partitions the fragment space across independent
	// LiveIndex shards (group-key routing, per-shard publish cycles).
	ShardedLiveIndex = fragindex.ShardedLiveIndex
	// FragmentID identifies a fragment: its selection-attribute values.
	FragmentID = fragment.ID
	// Delta is a batch of fragment changes derived from database updates.
	Delta = crawl.Delta
	// FragmentChange is one fragment's insert/remove/update within a Delta.
	FragmentChange = crawl.FragmentChange
	// ApplyStats reports what one delta application did and cost.
	ApplyStats = fragindex.ApplyStats
	// ApplyReport is the Maintainer contract's uniform apply result:
	// summed totals plus, with more than one shard, what each touched
	// shard published (PerShard is nil for a single publish cycle).
	ApplyReport = fragindex.ShardedApplyStats
	// LiveStats summarizes a serving index and its maintenance history.
	LiveStats = fragindex.LiveStats
)

// Delta change operations, re-exported for building Deltas by hand.
const (
	OpInsertFragment = crawl.OpInsertFragment
	OpRemoveFragment = crawl.OpRemoveFragment
	OpUpdateFragment = crawl.OpUpdateFragment
)

// Algorithm selects the crawling/indexing strategy.
type Algorithm string

// Available crawl algorithms. AlgReference crawls without MapReduce using
// the in-process relational evaluator — the right choice for small embedded
// deployments; the MR algorithms reproduce the paper's §V and scale with
// cores.
const (
	AlgStepwise   Algorithm = Algorithm(crawl.AlgStepwise)
	AlgIntegrated Algorithm = Algorithm(crawl.AlgIntegrated)
	AlgReference  Algorithm = "reference"
)

// Database is the relational substrate Dash crawls; construct one with the
// relation package or a generator like internal/tpch. Its tables are
// append-only: to update or delete rows, assign a table a new Rows slice
// or register a new table (see "Serving while the database changes").
type Database = relation.Database

// BuildOptions configures Build.
type BuildOptions struct {
	// Algorithm defaults to AlgIntegrated (the paper's fastest).
	Algorithm Algorithm
	// Parallelism, MapTasks, and ReduceTasks tune the MapReduce engine;
	// zero values default to GOMAXPROCS.
	Parallelism int
	MapTasks    int
	ReduceTasks int
}

// BuildStats reports what Build produced and what it cost.
type BuildStats struct {
	Algorithm Algorithm
	// Phases carries per-phase MapReduce metrics (empty for
	// AlgReference): SW-Jn/SW-Grp/SW-Idx or INT-Jn/INT-Ext/INT-Cnsd.
	Phases     []crawl.Phase
	Fragments  int
	Keywords   int
	GraphEdges int
	// CrawlTime covers database crawling and fragment derivation;
	// IndexTime covers fragment-index (graph) construction.
	CrawlTime time.Duration
	IndexTime time.Duration
}

// Analyze reverse-engineers a servlet-style web application source into an
// Application (paper §III). Call Application.Bind with the database before
// Build.
func Analyze(src, baseURL string) (*Application, error) {
	return webapp.Analyze(src, baseURL)
}

// Build crawls the database and constructs the application's fragment
// index (paper §V). The application must be bound to db.
func Build(ctx context.Context, db *Database, app *Application, opts BuildOptions) (*Index, *BuildStats, error) {
	bound, err := app.Bound()
	if err != nil {
		return nil, nil, err
	}
	alg := opts.Algorithm
	if alg == "" {
		alg = AlgIntegrated
	}
	copts := crawl.Options{
		Parallelism: opts.Parallelism,
		MapTasks:    opts.MapTasks,
		ReduceTasks: opts.ReduceTasks,
	}
	crawlStart := time.Now()
	var out *crawl.Output
	switch alg {
	case AlgStepwise:
		out, err = crawl.Stepwise(ctx, db, bound, copts)
	case AlgIntegrated:
		out, err = crawl.Integrated(ctx, db, bound, copts)
	case AlgReference:
		out, err = crawl.Reference(db, bound)
	default:
		return nil, nil, fmt.Errorf("dash: unknown algorithm %q", alg)
	}
	if err != nil {
		return nil, nil, err
	}
	crawlTime := time.Since(crawlStart)

	spec, err := fragindex.SpecFromBound(bound)
	if err != nil {
		return nil, nil, err
	}
	idxStart := time.Now()
	idx, err := fragindex.Build(out, spec)
	if err != nil {
		return nil, nil, err
	}
	stats := &BuildStats{
		Algorithm:  alg,
		Phases:     out.Phases,
		Fragments:  idx.NumFragments(),
		Keywords:   idx.NumKeywords(),
		GraphEdges: idx.NumEdges(),
		CrawlTime:  crawlTime,
		IndexTime:  time.Since(idxStart),
	}
	return idx, stats, nil
}

// SaveIndex serializes an index (gob encoding).
func SaveIndex(idx *Index, w io.Writer) error { return idx.Save(w) }

// LoadIndex deserializes an index written by SaveIndex.
func LoadIndex(r io.Reader) (*Index, error) { return fragindex.Load(r) }
