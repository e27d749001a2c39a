package main

// reference.go is the driver's own copy of the corpus: the source the
// generators draw from and the oracle every sampled server answer is
// compared against. It is built by the same pipeline dashserve runs at
// boot, before any server starts.

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	dash "repro"
	"repro/internal/crawl"
	"repro/internal/harness"
	"repro/internal/psj"
	"repro/internal/relation"
	"repro/internal/tpch"
	"repro/internal/webapp"
)

// The dataset every server and the reference share.
const (
	datasetName  = "small"
	datasetQuery = "Q2"
	datasetSeed  = 42
)

// datasetArgs are the dashserve flags selecting that dataset.
var datasetArgs = []string{"-dataset", datasetName, "-query", datasetQuery, "-seed", fmt.Sprint(datasetSeed)}

// reference holds the built corpus and an in-process handle over it with
// the shard count of the server under test. (A 2-shard handle does not
// rank every query exactly as a 1-shard one on this corpus — see the
// follow-ups in bench/README.md — so the oracle matches the topology; a
// replica must answer exactly as its leader's topology does.)
type reference struct {
	db     *relation.Database
	app    *webapp.Application
	bound  *psj.Bound
	out    *crawl.Output
	corpus *corpus
	handle dash.Handle
	// Stage wall times of the build, reported as setup trace metrics.
	generateS, crawlS, buildS float64
	fragments, keywords       int
}

// build runs dataset generation, the integrated crawl and the index
// build, timing each stage.
func (r *reference) build(ctx context.Context) (*dash.Index, error) {
	scale, err := tpch.ScaleByName(datasetName)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	r.db, r.app, err = harness.Workload{Scale: scale, Seed: datasetSeed, Query: datasetQuery}.Setup()
	if err != nil {
		return nil, err
	}
	r.generateS = time.Since(t0).Seconds()
	if r.bound, err = r.app.Bound(); err != nil {
		return nil, err
	}
	t0 = time.Now()
	r.out, _, err = harness.RunCrawl(ctx, r.db, r.app, crawl.AlgIntegrated, crawl.Options{}, datasetName)
	if err != nil {
		return nil, err
	}
	r.crawlS = time.Since(t0).Seconds()
	t0 = time.Now()
	idx, _, err := harness.BuildGraph(r.out, r.bound, r.app.Name)
	if err != nil {
		return nil, err
	}
	r.buildS = time.Since(t0).Seconds()
	return idx, nil
}

// newReference builds the corpus and opens the oracle handle over it.
func newReference(ctx context.Context, shards int) (*reference, error) {
	r := &reference{}
	idx, err := r.build(ctx)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	if r.corpus, err = newCorpus(r.out); err != nil {
		return nil, err
	}
	r.fragments, r.keywords = idx.NumFragments(), idx.NumKeywords()
	if r.handle, err = dash.Open(ctx, idx, r.app, dash.WithShards(shards)); err != nil {
		return nil, fmt.Errorf("reference: open: %w", err)
	}
	return r, nil
}

// rebuildIndex builds another copy of the initial index (the trace passes
// each need one to mutate).
func (r *reference) rebuildIndex() (*dash.Index, error) {
	idx, _, err := harness.BuildGraph(r.out, r.bound, r.app.Name)
	return idx, err
}

// searchRequest is the typed form of the generated GET /v1/search.
func searchRequest(q string) dash.Request {
	return dash.Request{Keywords: strings.Fields(q), K: searchK, SizeThreshold: searchS}
}

// pageJSON and searchJSON mirror dashserve's /v1/search response.
type pageJSON struct {
	URL   string  `json:"url"`
	Query string  `json:"query_string"`
	Score float64 `json:"score"`
	Size  int64   `json:"size"`
}

type searchJSON struct {
	Query   string     `json:"query"`
	Count   int        `json:"count"`
	Results []pageJSON `json:"results"`
}

// check compares one server response body with the reference's answer to
// the same query at the reference's current state: same pages, in the
// same order, with the same URL, score and size.
func (r *reference) check(ctx context.Context, q string, body []byte) error {
	var got searchJSON
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("query %q: undecodable response: %w", q, err)
	}
	want, err := r.handle.Search(ctx, searchRequest(q))
	if err != nil {
		return fmt.Errorf("query %q: reference search: %w", q, err)
	}
	return compareResults(q, got, want)
}

func compareResults(q string, got searchJSON, want []dash.Result) error {
	if got.Query != q {
		return fmt.Errorf("query %q: response echoes query %q", q, got.Query)
	}
	if got.Count != len(got.Results) || len(got.Results) != len(want) {
		return fmt.Errorf("query %q: %d results (count %d), reference has %d", q, len(got.Results), got.Count, len(want))
	}
	for i, w := range want {
		g := got.Results[i]
		if g.URL != w.URL || g.Query != w.QueryString || g.Score != w.Score || g.Size != w.Size {
			return fmt.Errorf("query %q: result %d is {%s %v %d}, reference has {%s %v %d}",
				q, i, g.URL, g.Score, g.Size, w.URL, w.Score, w.Size)
		}
	}
	return nil
}

// replay folds one acknowledged maintenance request into the reference
// through the entry point dashserve's apply handler uses.
func (r *reference) replay(ctx context.Context, op *applyOp) error {
	_, err := r.handle.RecrawlWith(ctx, r.db, op.recrawl, op.delta)
	return err
}
