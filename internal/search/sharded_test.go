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
	"repro/internal/fragindex"
	"repro/internal/fragindex/fragtest"
	"repro/internal/fragment"
	"repro/internal/relation"
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

// TestShardedEquivalenceProperty: at every S ∈ {1, 2, 4, 16}, sharded
// answers equal the naive reference's over one index of the same
// fragments — scores, order, parameter boxes, fragments — over histories
// of routed publishes, per-shard GCs and Restores, and re-partitions.
// Totals drawn apart from the TFs spread the scores over many quotients,
// where a τ that does not bound the rounded score shows.
func TestShardedEquivalenceProperty(t *testing.T) {
	checkSearch(t, searchConfig{Config: fragtest.Config{Name: "sharded", Steps: 20, Corpus: 60, Totals: []int64{3, 4, 5, 6, 7, 9, 11, 13}},
		trials: 3, shards: []int{1, 2, 4, 16},
		reach: []string{pathSplit, pathRestore, pathGC, pathCut, pathRejected}})
}

// fooddbSharded builds single and sharded fooddb engines with the URL
// formulation bound, so equivalence covers the full Result surface.
func fooddbSharded(t *testing.T, shards int) (*Engine, *ShardedEngine) {
	t.Helper()
	idx1, app1 := fooddbIndex(t)
	idx2, app2 := fooddbIndex(t)
	live, err := fragindex.NewShardedLive(idx2, shards)
	if err != nil {
		t.Fatal(err)
	}
	return New(idx1, app1), NewSharded(live, app2)
}

// TestShardedFooddbMatchesSingle: the running example, URLs included,
// comes back identical through a 2-shard engine — fragments as the single
// index's refs — and Example 7's concrete scores survive sharding (global
// IDF, not per-shard IDF: the merged American page scores (3/25)·IDF(burger)
// with IDF = 1/3 over the whole corpus).
func TestShardedFooddbMatchesSingle(t *testing.T) {
	single, sharded := fooddbSharded(t, 2)
	pinned := sharded.Pin()
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
		got, err := sharded.SearchPinned(context.Background(), pinned, req)
		if err == nil {
			err = singleRefs(sharded.Live(), pinned, single.Snapshot(), got)
		}
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("req %+v (%v):\n sharded %+v\n single  %+v", req, err, got, want)
		}
		if req.K == 2 && (len(got) != 2 || math.Abs(got[0].Score-(3.0/25.0)/3.0) > 1e-12) {
			t.Errorf("Example 7: %+v, want two results, the top scoring %v", got, (3.0/25.0)/3.0)
		}
	}
}

// TestShardedGlobalIDF: a keyword whose fragments land on different shards
// is scored with 1/DF over every shard, as the reference over one index of
// the same fragments scores it; per-shard IDF would change every score.
func TestShardedGlobalIDF(t *testing.T) {
	checkSearch(t, searchConfig{Config: fragtest.Config{Name: "idf", Steps: 15, Corpus: 40, Ops: "ppppg"}, trials: 2, shards: []int{3}})
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
			if !reflect.DeepEqual(br.Results, want[i]) {
				t.Fatalf("workers=%d req %d diverges from serial", workers, i)
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
