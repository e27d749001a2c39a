package fragindex

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/crawl"
	"repro/internal/fragment"
	"repro/internal/relation"
)

// shardedSpec is the synthetic two-attribute shape used across these tests.
var shardedSpec = Spec{SelAttrs: []string{"g", "v"}, EqAttrs: []string{"g"}, RangeAttr: "v"}

// synthID builds the fragment identifier for group g, range value v.
func synthID(g, v int) fragment.ID {
	return fragment.ID{relation.String(fmt.Sprintf("g%03d", g)), relation.Int(int64(v))}
}

// synthCounts gives fragment (g,v) a distinctive keyword mix: a keyword
// shared across all groups plus a per-group keyword.
func synthCounts(g, v int) map[string]int64 {
	return map[string]int64{
		"common":                   int64(1 + (g+v)%3),
		fmt.Sprintf("only%02d", g): int64(1 + v),
	}
}

// buildSynthIndex creates groups×members fragments in identifier order.
func buildSynthIndex(t testing.TB, groups, members int) *Index {
	t.Helper()
	idx, err := New(shardedSpec)
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < groups; g++ {
		for v := 0; v < members; v++ {
			if _, err := idx.InsertFragment(synthID(g, v), synthCounts(g, v), int64(4+g%5)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return idx
}

// TestShardedPartitionPreservesGroups: partitioning keeps every equality
// group whole within one shard, preserves the fragment population, and
// routes lookups to the right shard.
func TestShardedPartitionPreservesGroups(t *testing.T) {
	const groups, members = 40, 6
	sl, err := NewShardedLive(buildSynthIndex(t, groups, members), 4)
	if err != nil {
		t.Fatal(err)
	}
	if sl.NumShards() != 4 {
		t.Fatalf("NumShards = %d", sl.NumShards())
	}
	total := 0
	seenGroup := make(map[string]int) // group key -> shard
	busy := 0
	for si := 0; si < sl.NumShards(); si++ {
		snap := sl.Shard(si).Snapshot()
		total += snap.NumFragments()
		if snap.NumFragments() > 0 {
			busy++
		}
		for ref := 0; ref < snap.NumRefs(); ref++ {
			m, err := snap.Meta(FragRef(ref))
			if err != nil {
				t.Fatal(err)
			}
			if !m.Alive {
				continue
			}
			key := m.ID[0].Text()
			if prev, ok := seenGroup[key]; ok && prev != si {
				t.Fatalf("group %s straddles shards %d and %d", key, prev, si)
			}
			seenGroup[key] = si
			want, err := sl.ShardFor(m.ID)
			if err != nil {
				t.Fatal(err)
			}
			if want != si {
				t.Fatalf("fragment %s lives in shard %d but routes to %d", m.ID, si, want)
			}
		}
	}
	if total != groups*members {
		t.Fatalf("partitioned fragments = %d, want %d", total, groups*members)
	}
	if busy < 2 {
		t.Fatalf("only %d of 4 shards populated; routing is degenerate", busy)
	}
	for g := 0; g < groups; g++ {
		if !sl.Has(synthID(g, 0)) {
			t.Fatalf("Has(%v) = false after partition", synthID(g, 0))
		}
	}
	if sl.Has(fragment.ID{relation.String("nope"), relation.Int(0)}) {
		t.Error("Has reports a fragment that was never inserted")
	}
}

// TestShardedShardForValidatesArity: short identifiers are rejected, not
// hashed.
func TestShardedShardForValidatesArity(t *testing.T) {
	sl, err := NewShardedLive(buildSynthIndex(t, 4, 2), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sl.ShardFor(fragment.ID{relation.String("g000")}); !errors.Is(err, ErrBadIDArity) {
		t.Errorf("short id err = %v, want ErrBadIDArity", err)
	}
}

// TestShardedApplyRoutesConcurrently: one delta touching several groups
// publishes on every routed shard, sums the stats, and leaves untouched
// shards' snapshots (pointer-identical) alone.
func TestShardedApplyRoutesConcurrently(t *testing.T) {
	const groups = 32
	sl, err := NewShardedLive(buildSynthIndex(t, groups, 4), 4)
	if err != nil {
		t.Fatal(err)
	}
	before := sl.PinAll()

	// Touch exactly the groups routed to shard 0 plus one group of some
	// other shard, so at least one shard stays idle.
	var changes []crawl.FragmentChange
	touched := map[int]bool{}
	other := -1
	for g := 0; g < groups; g++ {
		si, err := sl.ShardFor(synthID(g, 0))
		if err != nil {
			t.Fatal(err)
		}
		if si == 0 || (other == -1 && si != 0) {
			if si != 0 {
				other = si
			}
			touched[si] = true
			changes = append(changes, crawl.FragmentChange{
				Op: crawl.OpUpdateFragment, ID: synthID(g, 0),
				TermCounts: synthCounts(g, 99), TotalTerms: 7,
			})
		}
	}
	if len(touched) < 2 {
		t.Fatalf("test corpus routed everything to one shard: %v", touched)
	}
	st, err := sl.Apply(context.Background(), crawl.Delta{Changes: changes})
	if err != nil {
		t.Fatal(err)
	}
	if st.Total.Updated != len(changes) || st.Total.Deltas != 1 {
		t.Errorf("total = %+v, want %d updates", st.Total, len(changes))
	}
	if len(st.PerShard) != len(touched) {
		t.Errorf("per-shard entries = %d, want %d", len(st.PerShard), len(touched))
	}
	sum := 0
	for _, ps := range st.PerShard {
		if !touched[ps.Shard] {
			t.Errorf("shard %d reported but never touched", ps.Shard)
		}
		sum += ps.Updated
	}
	if sum != len(changes) {
		t.Errorf("per-shard updates sum = %d, want %d", sum, len(changes))
	}
	after := sl.PinAll()
	for si := range after {
		if touched[si] && after[si] == before[si] {
			t.Errorf("touched shard %d did not publish", si)
		}
		if !touched[si] && after[si] != before[si] {
			t.Errorf("untouched shard %d published a new snapshot", si)
		}
	}
}

// TestShardedApplyBatchCoalesces: an insert+remove pair cancels before
// routing, so no shard publishes anything.
func TestShardedApplyBatchCoalesces(t *testing.T) {
	sl, err := NewShardedLive(buildSynthIndex(t, 8, 2), 3)
	if err != nil {
		t.Fatal(err)
	}
	before := sl.PinAll()
	id := synthID(99, 0)
	st, err := sl.ApplyBatch(context.Background(), []crawl.Delta{
		{Changes: []crawl.FragmentChange{{Op: crawl.OpInsertFragment, ID: id, TermCounts: synthCounts(99, 0), TotalTerms: 4}}},
		{Changes: []crawl.FragmentChange{{Op: crawl.OpRemoveFragment, ID: id}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Total.Deltas != 2 || st.Total.Inserted != 0 || st.Total.Removed != 0 || len(st.PerShard) != 0 {
		t.Errorf("cancelled batch stats = %+v", st)
	}
	// The no-op reports the current highest published epoch, like
	// LiveIndex's no-op contract — never epoch 0.
	var wantEpoch uint64
	for _, snap := range before {
		if e := snap.Epoch(); e > wantEpoch {
			wantEpoch = e
		}
	}
	if st.Total.Epoch != wantEpoch || wantEpoch == 0 {
		t.Errorf("no-op epoch = %d, want current max %d", st.Total.Epoch, wantEpoch)
	}
	for si, snap := range sl.PinAll() {
		if snap != before[si] {
			t.Errorf("shard %d published for a cancelled batch", si)
		}
	}
	if sl.Has(id) {
		t.Error("cancelled insert reached a shard")
	}
}

// TestShardedApplyTransactionalPerShard: a failing change leaves its own
// shard unpublished (transactional), while a valid change routed to a
// different shard stands — the documented cross-shard contract.
func TestShardedApplyTransactionalPerShard(t *testing.T) {
	sl, err := NewShardedLive(buildSynthIndex(t, 16, 2), 4)
	if err != nil {
		t.Fatal(err)
	}
	// Find two groups on different shards.
	gOK, gBad := -1, -1
	siOK, siBad := -1, -1
	for g := 0; g < 16 && (gOK < 0 || gBad < 0); g++ {
		si, _ := sl.ShardFor(synthID(g, 0))
		switch {
		case gOK < 0:
			gOK, siOK = g, si
		case si != siOK:
			gBad, siBad = g, si
		}
	}
	if gBad < 0 {
		t.Fatal("corpus routed to a single shard")
	}
	before := sl.PinAll()
	_, err = sl.Apply(context.Background(), crawl.Delta{Changes: []crawl.FragmentChange{
		{Op: crawl.OpUpdateFragment, ID: synthID(gOK, 0), TermCounts: synthCounts(gOK, 5), TotalTerms: 5},
		// Fails: removing a fragment that does not exist.
		{Op: crawl.OpRemoveFragment, ID: synthID(gBad, 77)},
	}})
	if err == nil {
		t.Fatal("apply with an impossible removal succeeded")
	}
	after := sl.PinAll()
	if after[siBad] != before[siBad] {
		t.Error("failing shard published")
	}
	if after[siOK] == before[siOK] {
		t.Error("independent shard was rolled back (cross-shard atomicity is not the contract)")
	}
}

// TestShardedSpecCheck: deltas carrying mismatched selection attributes are
// rejected before routing.
func TestShardedSpecCheck(t *testing.T) {
	sl, err := NewShardedLive(buildSynthIndex(t, 4, 2), 2)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sl.Apply(context.Background(), crawl.Delta{SelAttrs: []string{"wrong"}, Changes: []crawl.FragmentChange{
		{Op: crawl.OpRemoveFragment, ID: synthID(0, 0)},
	}})
	if !errors.Is(err, ErrDeltaSpec) {
		t.Errorf("spec mismatch err = %v", err)
	}
}

// TestShardedCompactIfNeeded: removal-heavy shards compact independently
// and the survivor population is intact afterwards.
func TestShardedCompactIfNeeded(t *testing.T) {
	const groups, members = 24, 4
	sl, err := NewShardedLive(buildSynthIndex(t, groups, members), 3)
	if err != nil {
		t.Fatal(err)
	}
	// Remove half of every group.
	var changes []crawl.FragmentChange
	for g := 0; g < groups; g++ {
		for v := 0; v < members/2; v++ {
			changes = append(changes, crawl.FragmentChange{Op: crawl.OpRemoveFragment, ID: synthID(g, v)})
		}
	}
	if _, err := sl.Apply(context.Background(), crawl.Delta{Changes: changes}); err != nil {
		t.Fatal(err)
	}
	rows, _ := sl.Stats()
	st := sumRows(rows)
	if st.TombstonedRefs == 0 {
		t.Fatal("removals left no tombstones")
	}
	n, err := sl.CompactIfNeeded(context.Background(), 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no shard compacted despite 50% dead refs")
	}
	rows, _ = sl.Stats()
	st = sumRows(rows)
	if st.TombstonedRefs != 0 {
		t.Errorf("tombstoned refs after compaction = %d", st.TombstonedRefs)
	}
	if st.Fragments != groups*members/2 {
		t.Errorf("fragments after compaction = %d, want %d", st.Fragments, groups*members/2)
	}
	if st.Compactions != uint64(n) {
		t.Errorf("compaction counter = %d, want %d", st.Compactions, n)
	}
	for g := 0; g < groups; g++ {
		if sl.Has(synthID(g, 0)) {
			t.Fatalf("removed fragment %v still resolves", synthID(g, 0))
		}
		if !sl.Has(synthID(g, members-1)) {
			t.Fatalf("surviving fragment %v lost by compaction", synthID(g, members-1))
		}
	}
}

// sumRows sums the per-shard stats rows the counters below check.
func sumRows(rows []LiveStats) LiveStats {
	var sum LiveStats
	for _, r := range rows {
		sum.Fragments += r.Fragments
		sum.TombstonedRefs += r.TombstonedRefs
		sum.DeltasApplied += r.DeltasApplied
		sum.Publishes += r.Publishes
		sum.Updated += r.Updated
		sum.Compactions += r.Compactions
	}
	return sum
}

// TestShardedStatsAggregates: Stats carries one row per shard, each
// counting that shard's own applies, plus the logical delta count.
func TestShardedStatsAggregates(t *testing.T) {
	sl, err := NewShardedLive(buildSynthIndex(t, 20, 3), 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sl.Apply(context.Background(), crawl.Delta{Changes: []crawl.FragmentChange{
		{Op: crawl.OpUpdateFragment, ID: synthID(0, 0), TermCounts: synthCounts(0, 9), TotalTerms: 4},
		{Op: crawl.OpUpdateFragment, ID: synthID(11, 0), TermCounts: synthCounts(11, 9), TotalTerms: 4},
	}}); err != nil {
		t.Fatal(err)
	}
	rows, deltas := sl.Stats()
	if len(rows) != 4 {
		t.Fatalf("stats rows = %d, want 4", len(rows))
	}
	for i, r := range rows {
		if r.Epoch != sl.Shard(i).Snapshot().Epoch() {
			t.Errorf("row %d epoch %d, shard publishes %d", i, r.Epoch, sl.Shard(i).Snapshot().Epoch())
		}
	}
	sum := sumRows(rows)
	if sum.Updated != 2 || sum.Fragments != 60 {
		t.Errorf("rows sum to %d updated / %d fragments, want 2 / 60", sum.Updated, sum.Fragments)
	}
	// Each touched shard applied once; the one logical delta counts once
	// — the same meaning a single LiveIndex's deltas_applied carries.
	if sum.DeltasApplied != sum.Publishes || sum.Publishes == 0 {
		t.Errorf("per-shard deltas %d, publishes %d", sum.DeltasApplied, sum.Publishes)
	}
	if deltas != 1 {
		t.Errorf("deltas_applied = %d, want 1 logical delta", deltas)
	}
}

// TestShardedSingleShardSharesIndex: n=1 wraps the index without a
// partition pass, preserving its refs and epoch.
func TestShardedSingleShardSharesIndex(t *testing.T) {
	idx := buildSynthIndex(t, 8, 2)
	wantEpoch := idx.Snapshot().Epoch()
	sl, err := NewShardedLive(idx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := sl.Shard(0).Snapshot().Epoch(); got != wantEpoch {
		t.Errorf("single-shard epoch = %d, want %d (wrap, not rebuild)", got, wantEpoch)
	}
}

// TestShardedBadShardCount: zero and negative shard counts are rejected.
func TestShardedBadShardCount(t *testing.T) {
	for _, n := range []int{0, -3} {
		if _, err := NewShardedLive(buildSynthIndex(t, 2, 2), n); err == nil {
			t.Errorf("NewShardedLive(%d) succeeded", n)
		}
	}
}

// TestCompactionThresholdBehavior: a list compacts once its tombstones
// reach compactDeadNum/compactDeadDen (1/4) of it, and not before: the
// checker simulates the rule over every removal-only publish of a small
// corpus (see TestCompactPostingsThreshold).
func TestCompactionThresholdBehavior(t *testing.T) {
	checkModel(t, modelConfig{name: "small-lists", trials: 3, steps: 20, corpus: 40, kinds: "rri", ops: "pRR",
		reach: []string{pathCompaction, pathSharedTombstone}})
}
