package search

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/crawl"
	"repro/internal/fooddb"
	"repro/internal/fragindex"
	"repro/internal/fragment"
	"repro/internal/relation"
	"repro/internal/webapp"
)

// corpusSpec is the synthetic shape used by the equivalence tests: groups
// keyed by one equality attribute, members ordered by a range attribute.
var corpusSpec = fragindex.Spec{SelAttrs: []string{"g", "v"}, EqAttrs: []string{"g"}, RangeAttr: "v"}

// corpusChange is one insert in the deterministic build sequence (and the
// unit random maintenance deltas are made of).
type corpusChange struct {
	id     fragment.ID
	counts map[string]int64
	total  int64
}

// corpusVocab is the closed keyword vocabulary random corpora draw from;
// small enough that queries hit crowded posting lists with score ties.
var corpusVocab = []string{"ale", "bun", "cod", "dip", "egg", "fig", "gin", "ham"}

// randomCorpus generates fragments in identifier order (ascending group,
// ascending range value) — the same arrival order fragindex.Build and the
// sharded partition pass use, so single and sharded builds assign refs in
// the same relative order.
func randomCorpus(r *rand.Rand, groups, maxMembers int) []corpusChange {
	var out []corpusChange
	for g := 0; g < groups; g++ {
		members := 1 + r.Intn(maxMembers)
		for v := 0; v < members; v++ {
			counts := make(map[string]int64)
			var total int64
			for _, kw := range corpusVocab {
				if r.Intn(3) == 0 {
					tf := int64(1 + r.Intn(3))
					counts[kw] = tf
					total += tf
				}
			}
			total += int64(1 + r.Intn(6)) // keywords outside the query vocabulary
			out = append(out, corpusChange{
				id:     fragment.ID{relation.String(fmt.Sprintf("g%03d", g)), relation.Int(int64(v))},
				counts: counts,
				total:  total,
			})
		}
	}
	return out
}

func buildFrom(t testing.TB, changes []corpusChange) *fragindex.Index {
	t.Helper()
	idx, err := fragindex.New(corpusSpec)
	if err != nil {
		t.Fatal(err)
	}
	for _, ch := range changes {
		if _, err := idx.InsertFragment(ch.id, ch.counts, ch.total); err != nil {
			t.Fatal(err)
		}
	}
	return idx
}

// resultKey flattens the content identity of one result for comparison.
func resultKey(r Result) string {
	return fmt.Sprintf("eq=%v range=[%s,%s] score=%v size=%d frags=%d",
		r.EqValues, r.RangeLo.Text(), r.RangeHi.Text(), r.Score, r.Size, len(r.Fragments))
}

// diffResults reports the first difference between two result lists
// (scores compared exactly — the sharded path must reproduce the single
// index's float operations bit for bit).
func diffResults(single, sharded []Result) string {
	if len(single) != len(sharded) {
		return fmt.Sprintf("len %d vs %d", len(single), len(sharded))
	}
	for i := range single {
		if resultKey(single[i]) != resultKey(sharded[i]) {
			return fmt.Sprintf("result %d:\n  single  %s\n  sharded %s",
				i, resultKey(single[i]), resultKey(sharded[i]))
		}
	}
	return ""
}

// TestShardedEquivalenceProperty pins the documented equivalence contract
// down over random corpora, random maintenance deltas, and random
// requests: at every S ∈ {1, 2, 4, 16}, with K exhaustive (covering every
// possible page) or truncating, and with CandidateLimit 0 or cutting the
// posting lists at 1–5, sharded results are byte-identical to the
// single-index engine — scores, order, parameter boxes — before and after
// the maintenance rounds.
//
// The corpus generator keeps range values unique within a group, so the
// canonical content order is total over distinct pages.
func TestShardedEquivalenceProperty(t *testing.T) {
	const exhaustK = 100000
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 6; trial++ {
		changes := randomCorpus(r, 12+r.Intn(20), 6)
		single := New(fragindex.NewLive(buildFrom(t, changes)), nil)
		shardCounts := []int{1, 2, 4, 16}
		var shardeds []*ShardedEngine
		for _, s := range shardCounts {
			live, err := fragindex.NewShardedLive(buildFrom(t, changes), s)
			if err != nil {
				t.Fatal(err)
			}
			shardeds = append(shardeds, NewSharded(live, nil))
		}

		step := func(round int) {
			for q := 0; q < 40; q++ {
				nk := 1 + r.Intn(3)
				kws := make([]string, nk)
				for i := range kws {
					kws[i] = corpusVocab[r.Intn(len(corpusVocab))]
				}
				req := Request{
					Keywords:       kws,
					K:              []int{exhaustK, 1 + r.Intn(6)}[r.Intn(2)],
					SizeThreshold:  1 + r.Intn(40),
					AllowOverlap:   r.Intn(2) == 0,
					RequireAll:     r.Intn(4) == 0,
					CandidateLimit: []int{0, 1 + r.Intn(5)}[r.Intn(2)],
				}
				want, err := single.Search(context.Background(), req)
				if err != nil {
					t.Fatalf("trial %d round %d: single: %v", trial, round, err)
				}
				for i, se := range shardeds {
					got, err := se.Search(context.Background(), req)
					if err != nil {
						t.Fatalf("trial %d round %d: shards=%d: %v", trial, round, shardCounts[i], err)
					}
					if d := diffResults(want, got); d != "" {
						t.Fatalf("trial %d round %d req %+v: shards=%d diverges: %s",
							trial, round, req, shardCounts[i], d)
					}
				}
			}
		}

		step(0)

		// Random maintenance: updates of existing fragments, removals, and
		// inserts of fresh range values, applied identically to every
		// engine, then re-checked.
		live := changes
		for round := 1; round <= 2; round++ {
			var ds []crawl.Delta
			for n := 0; n < 10 && len(live) > 4; n++ {
				switch r.Intn(3) {
				case 0: // update
					at := r.Intn(len(live))
					fresh := randomCorpus(r, 1, 1)[0]
					live[at].counts, live[at].total = fresh.counts, fresh.total
					ds = append(ds, crawl.Delta{Changes: []crawl.FragmentChange{{
						Op: crawl.OpUpdateFragment, ID: live[at].id,
						TermCounts: live[at].counts, TotalTerms: live[at].total,
					}}})
				case 1: // remove
					at := r.Intn(len(live))
					ds = append(ds, crawl.Delta{Changes: []crawl.FragmentChange{{
						Op: crawl.OpRemoveFragment, ID: live[at].id,
					}}})
					live = append(live[:at], live[at+1:]...)
				default: // insert into a fresh group so ids never collide
					fresh := randomCorpus(r, 1, 1)[0]
					fresh.id = fragment.ID{
						relation.String(fmt.Sprintf("n%03d_%d", trial, round*100+n)),
						relation.Int(0),
					}
					live = append(live, fresh)
					ds = append(ds, crawl.Delta{Changes: []crawl.FragmentChange{{
						Op: crawl.OpInsertFragment, ID: fresh.id,
						TermCounts: fresh.counts, TotalTerms: fresh.total,
					}}})
				}
			}
			if _, err := single.Source().(*fragindex.LiveIndex).ApplyBatch(context.Background(), ds); err != nil {
				t.Fatalf("trial %d: single apply: %v", trial, err)
			}
			for _, se := range shardeds {
				if _, err := se.Live().ApplyBatch(context.Background(), ds); err != nil {
					t.Fatalf("trial %d: shards=%d apply: %v", trial, se.NumShards(), err)
				}
			}
			step(round)
		}
	}
}

// fooddbSharded builds single and sharded fooddb engines with the URL
// formulation bound, so equivalence covers the full Result surface.
func fooddbSharded(t *testing.T, shards int) (*Engine, *ShardedEngine) {
	t.Helper()
	build := func() (*fragindex.Index, *webapp.Application) {
		db := fooddb.New()
		app, err := webapp.Analyze(fooddb.ServletSource, fooddb.BaseURL)
		if err != nil {
			t.Fatal(err)
		}
		if err := app.Bind(db); err != nil {
			t.Fatal(err)
		}
		bound, err := app.Bound()
		if err != nil {
			t.Fatal(err)
		}
		out, err := crawl.Reference(db, bound)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := fragindex.SpecFromBound(bound)
		if err != nil {
			t.Fatal(err)
		}
		idx, err := fragindex.Build(out, spec)
		if err != nil {
			t.Fatal(err)
		}
		return idx, app
	}
	idx1, app1 := build()
	idx2, app2 := build()
	live, err := fragindex.NewShardedLive(idx2, shards)
	if err != nil {
		t.Fatal(err)
	}
	return New(idx1, app1), NewSharded(live, app2)
}

// TestShardedFooddbMatchesSingle: the running example, URLs included,
// comes back identical through a 2-shard engine — and Example 7's
// concrete scores survive sharding (global IDF, not per-shard IDF).
func TestShardedFooddbMatchesSingle(t *testing.T) {
	single, sharded := fooddbSharded(t, 2)
	for _, req := range []Request{
		{Keywords: []string{"burger"}, K: 2, SizeThreshold: 20},
		{Keywords: []string{"burger", "fries", "coffee"}, K: 10, SizeThreshold: 15},
		{Keywords: []string{"burger", "fries"}, K: 10, SizeThreshold: 1, RequireAll: true},
		{Keywords: []string{"zanzibar"}, K: 3, SizeThreshold: 10},
	} {
		want, err := single.Search(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sharded.Search(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != len(got) {
			t.Fatalf("req %+v: %d vs %d results", req, len(want), len(got))
		}
		for i := range want {
			if want[i].URL != got[i].URL || want[i].Score != got[i].Score || want[i].Size != got[i].Size {
				t.Errorf("req %+v result %d: single %s %v, sharded %s %v",
					req, i, want[i].URL, want[i].Score, got[i].URL, got[i].Score)
			}
		}
	}

	// Example 7's arithmetic: the merged American page scores
	// (3/25)·IDF(burger) with IDF = 1/3 over the whole corpus, no matter
	// how the three burger fragments split across shards.
	results, err := sharded.Search(context.Background(), Request{Keywords: []string{"burger"}, K: 2, SizeThreshold: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d, want 2", len(results))
	}
	if math.Abs(results[0].Score-(3.0/25.0)/3.0) > 1e-12 {
		t.Errorf("top score = %v, want %v", results[0].Score, (3.0/25.0)/3.0)
	}
}

// TestShardedGlobalIDF pins the DF aggregation down directly: a keyword
// whose fragments land on different shards must be scored with 1/DF_global
// — per-shard IDF (1/DF_shard) would inflate every score.
func TestShardedGlobalIDF(t *testing.T) {
	// 9 single-member groups sharing keyword "w"; any 3-shard routing
	// splits them somehow, and every split must yield IDF = 1/9.
	var changes []corpusChange
	for g := 0; g < 9; g++ {
		changes = append(changes, corpusChange{
			id:     fragment.ID{relation.String(fmt.Sprintf("g%03d", g)), relation.Int(0)},
			counts: map[string]int64{"w": 1},
			total:  2,
		})
	}
	live, err := fragindex.NewShardedLive(buildFrom(t, changes), 3)
	if err != nil {
		t.Fatal(err)
	}
	se := NewSharded(live, nil)
	results, err := se.Search(context.Background(), Request{Keywords: []string{"w"}, K: 9, SizeThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 9 {
		t.Fatalf("results = %d, want 9", len(results))
	}
	want := (1.0 / 2.0) * (1.0 / 9.0)
	for _, r := range results {
		if math.Abs(r.Score-want) > 1e-15 {
			t.Fatalf("score = %v, want %v (global IDF 1/9)", r.Score, want)
		}
	}
}

// TestShardedValidation: the sharded front door enforces the same
// request contract as Engine.
func TestShardedValidation(t *testing.T) {
	live, err := fragindex.NewShardedLive(buildFrom(t, randomCorpus(rand.New(rand.NewSource(1)), 4, 3)), 2)
	if err != nil {
		t.Fatal(err)
	}
	se := NewSharded(live, nil)
	if _, err := se.Search(context.Background(), Request{K: 3, SizeThreshold: 1}); !errors.Is(err, ErrNoKeywords) {
		t.Errorf("no keywords err = %v", err)
	}
	if _, err := se.Search(context.Background(), Request{Keywords: []string{"ale"}, K: 0}); !errors.Is(err, ErrBadK) {
		t.Errorf("k=0 err = %v", err)
	}
	if _, err := se.SearchPinned(context.Background(), se.Pin()[:1], Request{Keywords: []string{"ale"}, K: 1, SizeThreshold: 1}); err == nil {
		t.Error("short pinned set accepted")
	}
}

// TestShardedParallelSearchMatchesSearch: batch evaluation is positionally
// identical to serial evaluation, at every worker count.
func TestShardedParallelSearchMatchesSearch(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	live, err := fragindex.NewShardedLive(buildFrom(t, randomCorpus(r, 20, 5)), 4)
	if err != nil {
		t.Fatal(err)
	}
	se := NewSharded(live, nil)
	var reqs []Request
	for _, kw := range corpusVocab {
		reqs = append(reqs, Request{Keywords: []string{kw}, K: 5, SizeThreshold: 20})
	}
	var want [][]Result
	for _, req := range reqs {
		rs, err := se.Search(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, rs)
	}
	for _, workers := range []int{-1, 1, 3, 16} {
		for i, br := range se.ParallelSearch(context.Background(), reqs, workers) {
			if br.Err != nil {
				t.Fatalf("workers=%d req %d: %v", workers, i, br.Err)
			}
			if d := diffResults(want[i], br.Results); d != "" {
				t.Fatalf("workers=%d req %d diverges: %s", workers, i, d)
			}
		}
	}
}

// TestShardedStatsFold: Stats folds the per-shard rows into one report —
// counters are sums, MaxEpoch is the highest shard epoch (not the last
// row's), AvgTerms is weighted by fragments — and one shard reports the
// "live" topology without per-shard rows.
func TestShardedStatsFold(t *testing.T) {
	ctx := context.Background()
	corpus := randomCorpus(rand.New(rand.NewSource(9)), 24, 4)
	live, err := fragindex.NewShardedLive(buildFrom(t, corpus), 4)
	if err != nil {
		t.Fatal(err)
	}
	var first, last []fragment.ID
	for _, ch := range corpus {
		si, err := live.ShardFor(ch.id)
		if err != nil {
			t.Fatal(err)
		}
		switch si {
		case 0:
			first = append(first, ch.id)
		case live.NumShards() - 1:
			last = append(last, ch.id)
		}
	}
	if len(first) < 3 || len(last) < 1 {
		t.Fatalf("routing left %d fragments on shard 0 and %d on the last, want >= 3 and >= 1", len(first), len(last))
	}
	apply := func(chs ...crawl.FragmentChange) {
		t.Helper()
		if _, err := live.Apply(ctx, crawl.Delta{Changes: chs}); err != nil {
			t.Fatal(err)
		}
	}
	// Churn shard 0 more often than the last shard, so shard 0 ends with
	// the strictly highest epoch and the last row does not carry it.
	apply(crawl.FragmentChange{Op: crawl.OpUpdateFragment, ID: first[0], TermCounts: map[string]int64{"ale": 5}, TotalTerms: 9})
	apply(crawl.FragmentChange{Op: crawl.OpRemoveFragment, ID: first[1]})
	apply(crawl.FragmentChange{Op: crawl.OpInsertFragment, ID: fragment.ID{first[0][0], relation.Int(99)}, TermCounts: map[string]int64{"bun": 1}, TotalTerms: 3})
	apply(crawl.FragmentChange{Op: crawl.OpRemoveFragment, ID: last[0]})
	if n, err := live.CompactIfNeeded(ctx, 0.01); err != nil || n == 0 {
		t.Fatalf("compaction: %d shards, %v", n, err)
	}
	apply(crawl.FragmentChange{Op: crawl.OpRemoveFragment, ID: first[2]})

	got := NewSharded(live, nil).Stats()
	rows, deltas := live.Stats()
	if rows[0].Epoch <= rows[len(rows)-1].Epoch {
		t.Fatalf("shard 0 epoch %d not above the last shard's %d", rows[0].Epoch, rows[len(rows)-1].Epoch)
	}
	want := Stats{Topology: TopologySharded, Shards: len(rows), DeltasApplied: deltas, PerShard: rows}
	var terms float64
	for _, r := range rows {
		want.Fragments += r.Fragments
		want.Keywords += r.Keywords
		want.TombstonedRefs += r.TombstonedRefs
		terms += r.AvgTerms * float64(r.Fragments)
		want.MaxEpoch = max(want.MaxEpoch, r.Epoch)
		want.Publishes += r.Publishes
		want.Inserted += r.Inserted
		want.Removed += r.Removed
		want.Updated += r.Updated
		want.Compactions += r.Compactions
	}
	want.AvgTerms = terms / float64(want.Fragments)
	if math.Abs(got.AvgTerms-want.AvgTerms) > 1e-12 {
		t.Errorf("avg terms = %v, want fragment-weighted %v", got.AvgTerms, want.AvgTerms)
	}
	got.AvgTerms = want.AvgTerms
	if !reflect.DeepEqual(got, want) {
		t.Errorf("stats = %+v\nwant %+v", got, want)
	}
	// The fold must see real activity on every counter it sums.
	if want.Fragments != len(corpus)-2 || want.Inserted != 1 || want.Removed != 3 || want.Updated != 1 ||
		want.TombstonedRefs == 0 || want.Compactions == 0 || want.Publishes < 5 || deltas != 5 {
		t.Errorf("activity not reflected: %+v (logical deltas %d)", want, deltas)
	}

	single, err := fragindex.NewShardedLive(buildFrom(t, corpus), 1)
	if err != nil {
		t.Fatal(err)
	}
	got = NewSharded(single, nil).Stats()
	rows, _ = single.Stats()
	r := rows[0]
	if got.Topology != TopologyLive || got.PerShard != nil || got.Shards != 1 ||
		got.Fragments != r.Fragments || got.Keywords != r.Keywords || got.MaxEpoch != r.Epoch ||
		math.Abs(got.AvgTerms-r.AvgTerms) > 1e-12 {
		t.Errorf("one-shard stats = %+v, row %+v", got, r)
	}
}
