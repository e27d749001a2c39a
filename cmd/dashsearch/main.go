// Command dashsearch answers top-k keyword searches over an index written
// by dashcrawl:
//
//	dashsearch -index search.idx -dataset fooddb -k 2 -s 20 burger
//	dashsearch -index q2.idx -dataset medium -query Q2 -k 5 -s 200 cato7
//
// The dataset/query flags rebuild the web application so result URLs can be
// formulated (the index itself stores only fragments).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/durable"
	"repro/internal/fragindex"
	"repro/internal/harness"
	"repro/internal/relation"
	"repro/internal/search"
	"repro/internal/tpch"
	"repro/internal/webapp"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dashsearch:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dashsearch", flag.ContinueOnError)
	indexPath := fs.String("index", "dash.idx", "index file written by dashcrawl")
	dataset := fs.String("dataset", "fooddb", "fooddb | small | medium | large")
	query := fs.String("query", "Q2", "application query for TPC-H datasets")
	seed := fs.Int64("seed", 42, "dataset generator seed (must match dashcrawl)")
	k := fs.Int("k", 5, "number of db-page URLs to return")
	s := fs.Int("s", 100, "db-page size threshold (keywords)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	keywords := fs.Args()
	if len(keywords) == 0 {
		return fmt.Errorf("no keywords given")
	}

	d, err := durable.ReadSnapshot(context.Background(), *indexPath)
	if err != nil {
		return err
	}
	idx, err := fragindex.Restore(d)
	if err != nil {
		return err
	}

	_, app, err := setup(*dataset, *query, *seed)
	if err != nil {
		return err
	}
	engine := search.New(idx, app)

	start := time.Now()
	results, err := engine.Search(context.Background(), search.Request{
		Keywords: keywords, K: *k, SizeThreshold: *s,
	})
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	fmt.Printf("%d result(s) in %v over %d fragments\n",
		len(results), elapsed, idx.NumFragments())
	for i, r := range results {
		fmt.Printf("%2d. %-60s score=%.6f size=%d fragments=%d\n",
			i+1, r.URL, r.Score, r.Size, len(r.Fragments))
	}
	return nil
}

func setup(dataset, query string, seed int64) (*relation.Database, *webapp.Application, error) {
	if dataset == "fooddb" {
		return harness.Fooddb()
	}
	scale, err := tpch.ScaleByName(dataset)
	if err != nil {
		return nil, nil, err
	}
	return harness.Workload{Scale: scale, Seed: seed, Query: query}.Setup()
}
