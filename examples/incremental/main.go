// Incremental demonstrates online fragment-index maintenance — the paper's
// first future-work item (§VIII: "some efficient update mechanisms that can
// efficiently update (affected portions of) a fragment index are
// desirable") — under live query traffic.
//
// The index is served through dash.Open's handle, built on epoch-swap
// snapshots: searcher goroutines stream top-k queries, each pinned to an
// immutable snapshot resolved with one atomic load, while the writer
// mutates the fooddb database and calls Recrawl, which re-executes the
// application query for the affected partitions only, derives a Delta
// (insert/remove/update per fragment), and atomically publishes the
// patched index version. A snapshot pinned before the update keeps
// answering with the old contents — repeatable reads for free — while new
// searches see the fresh comment immediately.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"sync/atomic"

	dash "repro"
	"repro/internal/fooddb"
	"repro/internal/relation"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	db := fooddb.New()
	app, err := dash.Analyze(fooddb.ServletSource, fooddb.BaseURL)
	if err != nil {
		return err
	}
	if err := app.Bind(db); err != nil {
		return err
	}
	idx, stats, err := dash.Build(context.Background(), db, app, dash.BuildOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("initial index: %d fragments, %d keywords\n", stats.Fragments, stats.Keywords)

	ctx := context.Background()
	// Open serves one epoch-swap index by default; the concrete type is
	// asserted because this example also demonstrates explicit snapshot
	// pinning, which is outside the portable Handle contract.
	opened, err := dash.Open(ctx, idx, app)
	if err != nil {
		return err
	}
	engine := opened.(*dash.ServingEngine)
	froyo := dash.Request{Keywords: []string{"froyo"}, K: 5, SizeThreshold: 5}

	before, err := engine.Search(ctx, froyo)
	if err != nil {
		return err
	}
	fmt.Printf("search \"froyo\" before update: %d results\n", len(before))

	// Pin the pre-update version: everything searched through it stays
	// byte-identical no matter what is published later.
	pinned := engine.Pin()

	// Query traffic keeps flowing while the index is maintained: searcher
	// goroutines hammer the live engine and count how many of their
	// answers came from the post-update index version.
	var (
		searches   atomic.Int64
		sawFresh   atomic.Int64
		searcherWG sync.WaitGroup
	)
	for g := 0; g < 4; g++ {
		searcherWG.Add(1)
		go func() {
			defer searcherWG.Done()
			for i := 0; i < 500; i++ {
				rs, err := engine.Search(context.Background(), froyo)
				if err != nil {
					panic(err)
				}
				searches.Add(1)
				if len(rs) > 0 {
					sawFresh.Add(1)
				}
			}
		}()
	}

	// A customer posts a new comment on Bond's Cafe (rid 7, an American
	// restaurant with budget 9) — the database changes under the index.
	comments, err := db.Table("comment")
	if err != nil {
		return err
	}
	err = comments.Append(relation.Row{
		relation.Int(207), relation.Int(7), relation.Int(120),
		relation.String("Great froyo dessert"), relation.String("03/12"),
	})
	if err != nil {
		return err
	}
	fmt.Println("\ninserted comment 207: \"Great froyo dessert\" on Bond's Cafe")

	// Only the (American, 9) partition is affected. Recrawl re-executes the
	// application query pinned to it, derives the delta, and swaps in the
	// patched snapshot — while the searchers above keep running.
	affected := dash.FragmentID{relation.String("American"), relation.Int(9)}
	applied, err := engine.Recrawl(ctx, db, []dash.FragmentID{affected})
	if err != nil {
		return err
	}
	fmt.Printf("recrawled partition %s: %d updated, cloned %d posting lists in %d shards (epoch %d)\n",
		affected, applied.Total.Updated, applied.Total.ClonedLists, applied.Total.ClonedShards, applied.Total.Epoch)
	st := engine.Stats()
	fmt.Printf("index still has %d fragments — only one partition touched\n", st.Fragments)

	searcherWG.Wait()
	fmt.Printf("served %d searches concurrently with the update (%d saw the new content)\n",
		searches.Load(), sawFresh.Load())

	// New searches see the fresh comment instantly…
	after, err := engine.Search(ctx, froyo)
	if err != nil {
		return err
	}
	fmt.Printf("\nsearch \"froyo\" after update: %d result(s)\n", len(after))
	for _, r := range after {
		fmt.Printf("  %s (score %.4f)\n", r.URL, r.Score)
	}

	// …while the pinned pre-update snapshot still answers with the old
	// contents (repeatable reads across index versions).
	old, err := engine.SearchPinned(ctx, pinned, froyo)
	if err != nil {
		return err
	}
	fmt.Printf("pinned pre-update snapshot (epoch %d) still returns %d results\n",
		pinned[0].Epoch(), len(old))

	// And the suggested URL serves the fresh comment.
	page, err := app.Execute(after[0].QueryString)
	if err != nil {
		return err
	}
	fmt.Printf("\ndb-page %s now renders %d rows, including the new comment:\n",
		after[0].QueryString, page.Len())
	for _, row := range page.Rows {
		fmt.Printf("  %v\n", row)
	}
	return nil
}
