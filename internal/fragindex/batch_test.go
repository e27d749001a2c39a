package fragindex

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/crawl"
	"repro/internal/fragment"
	"repro/internal/relation"
)

// logicalState captures everything a reader can observe about a snapshot
// keyed by fragment identifier rather than ref, so index versions that
// reached the same content along different mutation paths (and therefore
// different ref numberings) compare equal.
func logicalState(s *Snapshot) map[string]any {
	out := map[string]any{
		"fragments": s.NumFragments(),
		"keywords":  s.NumKeywords(),
		"avg":       s.AvgTermsPerFragment(),
	}
	type post struct {
		ID string
		TF int32
	}
	for _, kw := range s.Keywords() {
		ps := s.Postings(kw)
		posts := make([]post, len(ps))
		for i, p := range ps {
			posts[i] = post{ID: s.metaAt(p.Frag).ID.String(), TF: p.TF}
		}
		sort.Slice(posts, func(i, j int) bool { return posts[i].ID < posts[j].ID })
		out["ps:"+kw] = posts
		out["df:"+kw] = s.DF(kw)
		out["idf:"+kw] = s.IDF(kw)
	}
	var edges []string
	for _, e := range s.Edges() {
		edges = append(edges, s.metaAt(e[0]).ID.String()+"|"+s.metaAt(e[1]).ID.String())
	}
	sort.Strings(edges)
	out["edges"] = edges
	return out
}

// TestLiveApplyEmptyDeltaNoOp: an empty delta publishes nothing — same
// snapshot pointer, same epoch, untouched counters, zero copy-on-write
// work — instead of cloning metadata and swapping in an identical version.
func TestLiveApplyEmptyDeltaNoOp(t *testing.T) {
	l := liveFooddb(t)
	s0 := l.Snapshot()
	before := l.Stats()

	st, err := l.Apply(context.Background(), crawl.Delta{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch != s0.Epoch() {
		t.Errorf("no-op epoch = %d, want current %d", st.Epoch, s0.Epoch())
	}
	if st.ClonedChunks != 0 || st.ClonedShards != 0 || st.ClonedLists != 0 || st.ClonedGroups != 0 {
		t.Errorf("no-op cloned something: %+v", st)
	}
	if l.Snapshot() != s0 {
		t.Error("empty delta published a new snapshot")
	}
	if after := l.Stats(); !reflect.DeepEqual(after, before) {
		t.Errorf("empty delta moved counters: %+v -> %+v", before, after)
	}
	// Batched form: a batch whose net effect is empty is equally a no-op.
	id := fragment.ID{relation.String("Nordic"), relation.Int(3)}
	st, err = l.ApplyBatch(context.Background(), []crawl.Delta{
		{Changes: []crawl.FragmentChange{{Op: crawl.OpInsertFragment, ID: id,
			TermCounts: map[string]int64{"herring": 1}, TotalTerms: 1}}},
		{Changes: []crawl.FragmentChange{{Op: crawl.OpRemoveFragment, ID: id}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if l.Snapshot() != s0 {
		t.Error("cancelled-out batch published a new snapshot")
	}
	if st.Deltas != 2 || st.Inserted != 0 {
		t.Errorf("cancelled batch stats = %+v", st)
	}
}

// TestApplyBatchMatchesSequential: a batch of deltas folded into one
// publish reaches the same logical index state as applying them one by
// one, across every coalescing rule (insert+update, insert+remove,
// update+update) — while paying a single publish.
func TestApplyBatchMatchesSequential(t *testing.T) {
	nordic := fragment.ID{relation.String("Nordic"), relation.Int(3)}
	doomed := fragment.ID{relation.String("Doomed"), relation.Int(1)}
	amer10 := fragment.ID{relation.String("American"), relation.Int(10)}
	ds := []crawl.Delta{
		// insert + update on the same new fragment.
		{Changes: []crawl.FragmentChange{{Op: crawl.OpInsertFragment, ID: nordic,
			TermCounts: map[string]int64{"herring": 1}, TotalTerms: 1}}},
		{Changes: []crawl.FragmentChange{{Op: crawl.OpUpdateFragment, ID: nordic,
			TermCounts: map[string]int64{"herring": 2, "rye": 1}, TotalTerms: 3}}},
		// insert + remove cancels.
		{Changes: []crawl.FragmentChange{{Op: crawl.OpInsertFragment, ID: doomed,
			TermCounts: map[string]int64{"nothing": 1}, TotalTerms: 1}}},
		{Changes: []crawl.FragmentChange{{Op: crawl.OpRemoveFragment, ID: doomed}}},
		// update + update keeps the last statistics.
		{Changes: []crawl.FragmentChange{{Op: crawl.OpUpdateFragment, ID: amer10,
			TermCounts: map[string]int64{"burger": 9}, TotalTerms: 9}}},
		{Changes: []crawl.FragmentChange{{Op: crawl.OpUpdateFragment, ID: amer10,
			TermCounts: map[string]int64{"burger": 1, "shake": 2}, TotalTerms: 3}}},
	}

	seq := liveFooddb(t)
	for i, d := range ds {
		if _, err := seq.Apply(context.Background(), d); err != nil {
			t.Fatalf("sequential apply %d: %v", i, err)
		}
	}
	batched := liveFooddb(t)
	st, err := batched.ApplyBatch(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	if st.Deltas != len(ds) {
		t.Errorf("batch stats deltas = %d, want %d", st.Deltas, len(ds))
	}
	if got, want := logicalState(batched.Snapshot()), logicalState(seq.Snapshot()); !reflect.DeepEqual(got, want) {
		t.Errorf("batched apply diverged from sequential:\nbatch %v\nseq   %v", got, want)
	}
	if seqSt, batchSt := seq.Stats(), batched.Stats(); batchSt.Publishes != 1 || seqSt.Publishes != uint64(len(ds)) {
		t.Errorf("publishes: batch %d (want 1), sequential %d (want %d)",
			batchSt.Publishes, seqSt.Publishes, len(ds))
	}
}

// TestApplyBatchTransactional: a batch that cannot apply — here a remove
// of a fragment that never existed — publishes nothing.
func TestApplyBatchTransactional(t *testing.T) {
	l := liveFooddb(t)
	s0 := l.Snapshot()
	_, err := l.ApplyBatch(context.Background(), []crawl.Delta{
		{Changes: []crawl.FragmentChange{{Op: crawl.OpInsertFragment,
			ID:         fragment.ID{relation.String("Nordic"), relation.Int(3)},
			TermCounts: map[string]int64{"herring": 1}, TotalTerms: 1}}},
		{Changes: []crawl.FragmentChange{{Op: crawl.OpRemoveFragment,
			ID: fragment.ID{relation.String("Klingon"), relation.Int(7)}}}},
	})
	if !errors.Is(err, ErrNoFragment) {
		t.Fatalf("err = %v, want ErrNoFragment", err)
	}
	if l.Snapshot() != s0 {
		t.Error("failed batch published a snapshot")
	}
	if st := l.Stats(); st.Publishes != 0 || st.DeltasApplied != 0 {
		t.Errorf("failed batch counted: %+v", st)
	}
	// Conflicting batches are rejected by coalescing before touching
	// anything.
	dup := fragment.ID{relation.String("Nordic"), relation.Int(4)}
	_, err = l.ApplyBatch(context.Background(), []crawl.Delta{
		{Changes: []crawl.FragmentChange{{Op: crawl.OpInsertFragment, ID: dup,
			TermCounts: map[string]int64{"a": 1}, TotalTerms: 1}}},
		{Changes: []crawl.FragmentChange{{Op: crawl.OpInsertFragment, ID: dup,
			TermCounts: map[string]int64{"b": 1}, TotalTerms: 1}}},
	})
	if !errors.Is(err, crawl.ErrCoalesce) {
		t.Fatalf("conflicting batch err = %v, want ErrCoalesce", err)
	}
	if l.Snapshot() != s0 {
		t.Error("conflicting batch published a snapshot")
	}
}

// TestStalePlanApplyFails reproduces the maintenance race the derive/apply
// split exposes: a delta derived against one snapshot (classifying an
// identifier as update) can meet an index where a concurrent writer has
// since removed the fragment. The stale apply must fail transactionally —
// wrong-guess classification never half-applies.
func TestStalePlanApplyFails(t *testing.T) {
	l := liveFooddb(t)
	id := fragment.ID{relation.String("American"), relation.Int(10)}
	// "DeriveDelta" ran while the fragment existed: classified as update.
	stale := updateDelta(id, map[string]int64{"burger": 5}, 5)
	// Another writer removes the fragment between derive and apply.
	if _, err := l.Apply(context.Background(), crawl.Delta{Changes: []crawl.FragmentChange{
		{Op: crawl.OpRemoveFragment, ID: id},
	}}); err != nil {
		t.Fatal(err)
	}
	s1 := l.Snapshot()
	before := logicalState(s1)
	if _, err := l.Apply(context.Background(), stale); !errors.Is(err, ErrNoFragment) {
		t.Fatalf("stale update err = %v, want ErrNoFragment", err)
	}
	if l.Snapshot() != s1 {
		t.Error("failed stale apply published a snapshot")
	}
	if got := logicalState(l.Snapshot()); !reflect.DeepEqual(got, before) {
		t.Error("failed stale apply changed the serving state")
	}
	// The same race inside a batch: the good leading change rolls back too.
	extra := fragment.ID{relation.String("Fusion"), relation.Int(42)}
	_, err := l.ApplyBatch(context.Background(), []crawl.Delta{
		{Changes: []crawl.FragmentChange{{Op: crawl.OpInsertFragment, ID: extra,
			TermCounts: map[string]int64{"fusion": 1}, TotalTerms: 1}}},
		stale,
	})
	if !errors.Is(err, ErrNoFragment) {
		t.Fatalf("stale batch err = %v, want ErrNoFragment", err)
	}
	if l.Snapshot().Has(extra) {
		t.Error("rolled-back batch insert leaked into the serving snapshot")
	}
}

// TestBatchPublishCostSharesUntouchedChunks pins the point of batching on
// a multi-chunk index: applying N single-change deltas as one batch pays
// one publish whose cloned-chunk count reflects the touched chunks only,
// while untouched chunks stay pointer-shared with the previous snapshot.
func TestBatchPublishCostSharesUntouchedChunks(t *testing.T) {
	spec := Spec{SelAttrs: []string{"g", "v"}, EqAttrs: []string{"g"}, RangeAttr: "v"}
	idx, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	n := 2*chunkSize + 100
	for i := 0; i < n; i++ {
		id := fragment.ID{relation.String(fmt.Sprintf("g%06d", i/16)), relation.Int(int64(i % 16))}
		if _, err := idx.InsertFragment(id, map[string]int64{fmt.Sprintf("w%d", i%97): 1}, 1); err != nil {
			t.Fatal(err)
		}
	}
	l := NewLive(idx)
	s0 := l.Snapshot()

	// 10 single-change updates confined to chunk 0, batched.
	var ds []crawl.Delta
	for i := 0; i < 10; i++ {
		id := fragment.ID{relation.String(fmt.Sprintf("g%06d", i)), relation.Int(0)}
		ds = append(ds, updateDelta(id, map[string]int64{fmt.Sprintf("w%d", i): 2}, 2))
	}
	st, err := l.ApplyBatch(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	s1 := l.Snapshot()
	if st.Deltas != 10 || st.Updated != 10 {
		t.Errorf("batch stats = %+v", st)
	}
	// Updates tombstone in chunk 0 and re-insert at the tail (last chunk):
	// exactly two dirty chunks, not O(refs/chunkSize).
	if st.ClonedChunks > 2 {
		t.Errorf("cloned %d chunks for a 2-chunk-touching batch", st.ClonedChunks)
	}
	shared := 0
	for i := 0; i < s0.numChunks(); i++ {
		if i < s1.numChunks() && s0.chunkAt(i) == s1.chunkAt(i) {
			shared++
		}
	}
	if want := s0.numChunks() - st.ClonedChunks; shared != want {
		t.Errorf("%d of %d chunks shared across publish, want %d", shared, s0.numChunks(), want)
	}
}
