package dash

import (
	"context"
	"io"
	"reflect"
	"testing"

	"repro/internal/crawl"
	"repro/internal/fragindex"
	"repro/internal/relation"
)

// durableQueries is the fixed battery the persistence tests compare
// topologies and restarts with.
var durableQueries = [][]string{
	{"burger"}, {"coffee"}, {"burger", "coffee"}, {"noodles"},
	{"herring"}, {"zzz-absent"},
}

// searchAll runs a query battery (durableQueries unless overridden) and
// normalizes results for cross-lineage comparison: FragRefs are
// snapshot-internal (a recovered index renumbers them), so only their count
// is kept; everything else must match exactly.
func searchAll(t *testing.T, s Searcher, queries ...[]string) [][]Result {
	t.Helper()
	if len(queries) == 0 {
		queries = durableQueries
	}
	out := make([][]Result, len(queries))
	for i, kws := range queries {
		rs, err := s.Search(context.Background(), Request{Keywords: kws, K: 5, SizeThreshold: 25})
		if err != nil {
			t.Fatalf("search %v: %v", kws, err)
		}
		norm := make([]Result, len(rs))
		for j, r := range rs {
			r.Size += int64(len(r.Fragments)) << 32 // fold the count in before dropping refs
			r.Fragments = nil
			norm[j] = r
		}
		out[i] = norm
	}
	return out
}

// dumpsOf captures a handle's canonical per-shard dumps — leader or
// replica, durable or in-memory — so recovered or replicated state can be
// compared byte-for-byte against a twin that applied the same deltas.
func dumpsOf(t *testing.T, h Handle) []*fragindex.Dump {
	t.Helper()
	live := h.(*ServingEngine).Live()
	out := make([]*fragindex.Dump, live.NumShards())
	for i := range out {
		out[i] = live.Shard(i).Dump()
	}
	return out
}

func durableDeltas() []Delta {
	mk := func(op crawl.ChangeOp, c string, v int64, counts map[string]int64, total int64) Delta {
		return Delta{Changes: []FragmentChange{{
			Op: op, ID: FragmentID{relation.String(c), relation.Int(v)},
			TermCounts: counts, TotalTerms: total,
		}}}
	}
	return []Delta{
		mk(OpInsertFragment, "Nordic", 3, map[string]int64{"herring": 2, "rye": 1}, 3),
		mk(OpUpdateFragment, "American", 10, map[string]int64{"burger": 4, "pickle": 1}, 5),
		mk(OpInsertFragment, "Fusion", 7, map[string]int64{"fusion": 2, "burger": 1}, 3),
		mk(OpUpdateFragment, "Nordic", 3, map[string]int64{"herring": 1, "akvavit": 2}, 3),
		mk(OpRemoveFragment, "Fusion", 7, nil, 0),
	}
}

// TestDurableSeedApplyReopen is the headline property: seed a fresh data
// dir, apply journaled deltas, reopen the directory cold, and the recovered
// handle answers every query identically — for both live topologies.
func TestDurableSeedApplyReopen(t *testing.T) {
	db, app, build := fooddbIndex(t)
	_ = db
	for _, shards := range []int{1, 3} {
		t.Run(map[int]string{1: "live", 3: "sharded"}[shards], func(t *testing.T) {
			dir := t.TempDir()
			h, err := Open(context.Background(), build(), app, WithShards(shards), WithDataDir(dir))
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range durableDeltas() {
				if _, err := h.Apply(context.Background(), d); err != nil {
					t.Fatal(err)
				}
			}
			want := searchAll(t, h)
			wantDumps := dumpsOf(t, h)
			wantStats := h.Stats()
			ds := h.(DurabilityReporter).DurabilityStats()
			if ds.Recovered || ds.Shards != shards || ds.JournalRecords == 0 {
				t.Errorf("pre-close durability stats %+v", ds)
			}
			if err := h.(io.Closer).Close(); err != nil {
				t.Fatal(err)
			}

			if !IsInitialized(dir) {
				t.Fatal("data dir not initialized after seeding")
			}
			h2, err := Open(context.Background(), nil, app, WithDataDir(dir))
			if err != nil {
				t.Fatal(err)
			}
			defer h2.(io.Closer).Close()
			if got := searchAll(t, h2); !reflect.DeepEqual(got, want) {
				t.Error("recovered handle answers differently")
			}
			if got := dumpsOf(t, h2); !reflect.DeepEqual(got, wantDumps) {
				t.Error("recovered canonical state diverged")
			}
			st := h2.Stats()
			if st.Fragments != wantStats.Fragments || st.Shards != shards || st.MaxEpoch != wantStats.MaxEpoch {
				t.Errorf("recovered stats %+v, want fragments/shards/epoch of %+v", st, wantStats)
			}
			ds2 := h2.(DurabilityReporter).DurabilityStats()
			if !ds2.Recovered || len(ds2.Recovery) != shards {
				t.Errorf("recovery stats %+v", ds2)
			}
			var replayed int
			for _, ri := range ds2.Recovery {
				replayed += ri.ReplayedRecords
			}
			if replayed != len(durableDeltas()) {
				t.Errorf("replayed %d records, want %d", replayed, len(durableDeltas()))
			}

			// The recovered handle keeps absorbing journaled deltas: a third
			// incarnation sees them too.
			extra := Delta{Changes: []FragmentChange{{
				Op: OpInsertFragment, ID: FragmentID{relation.String("Andean"), relation.Int(2)},
				TermCounts: map[string]int64{"quinoa": 2}, TotalTerms: 2,
			}}}
			if _, err := h2.Apply(context.Background(), extra); err != nil {
				t.Fatal(err)
			}
			want3 := dumpsOf(t, h2)
			h2.(io.Closer).Close()
			h3, err := Open(context.Background(), nil, app, WithDataDir(dir))
			if err != nil {
				t.Fatal(err)
			}
			defer h3.(io.Closer).Close()
			if got := dumpsOf(t, h3); !reflect.DeepEqual(got, want3) {
				t.Error("second recovery diverged")
			}
		})
	}
}

// TestDurableRecoveryEquivalence: a reopened handle and a never-closed
// in-memory twin that applied the same deltas hold byte-identical canonical
// state — recovery is exact, not approximate.
func TestDurableRecoveryEquivalence(t *testing.T) {
	_, app, build := fooddbIndex(t)
	dir := t.TempDir()
	h, err := Open(context.Background(), build(), app, WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	twin, err := Open(context.Background(), build(), app)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range durableDeltas() {
		if _, err := h.Apply(context.Background(), d); err != nil {
			t.Fatal(err)
		}
		if _, err := twin.Apply(context.Background(), d); err != nil {
			t.Fatal(err)
		}
	}
	h.(io.Closer).Close()
	h2, err := Open(context.Background(), nil, app, WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer h2.(io.Closer).Close()
	if got, want := dumpsOf(t, h2), dumpsOf(t, twin); !reflect.DeepEqual(got, want) {
		t.Error("recovered state diverged from the in-memory twin")
	}
	if got, want := searchAll(t, h2), searchAll(t, twin); !reflect.DeepEqual(got, want) {
		t.Error("recovered searches diverged from the in-memory twin")
	}
}

// TestDurableQueueFlush: queued deltas publish (and journal) only at Flush;
// the flushed batch survives a reopen as one coalesced record.
func TestDurableQueueFlush(t *testing.T) {
	_, app, build := fooddbIndex(t)
	dir := t.TempDir()
	h, err := Open(context.Background(), build(), app, WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	q := h.(Queuer)
	before := h.(DurabilityReporter).DurabilityStats().JournalRecords
	for i, d := range durableDeltas()[:3] {
		if got, err := q.Queue(d); err != nil || got != i+1 {
			t.Errorf("Queue #%d returned %d, %v", i+1, got, err)
		}
	}
	if got := h.(DurabilityReporter).DurabilityStats().JournalRecords; got != before {
		t.Errorf("queueing journaled: %d -> %d records", before, got)
	}
	rep, err := q.Flush(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total.Deltas != 3 {
		t.Errorf("flush report %+v", rep)
	}
	if got := h.(DurabilityReporter).DurabilityStats().JournalRecords; got != before+1 {
		t.Errorf("flush journaled %d records, want 1 coalesced", got-before)
	}
	want := dumpsOf(t, h)
	h.(io.Closer).Close()
	h2, err := Open(context.Background(), nil, app, WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer h2.(io.Closer).Close()
	if got := dumpsOf(t, h2); !reflect.DeepEqual(got, want) {
		t.Error("flushed batch did not survive the reopen")
	}
}

// TestDurableCompactCheckpoints: CompactIfNeeded on a durable handle
// doubles as a checkpoint — the journal rotates and recovery replays
// nothing.
func TestDurableCompactCheckpoints(t *testing.T) {
	_, app, build := fooddbIndex(t)
	dir := t.TempDir()
	h, err := Open(context.Background(), build(), app, WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range durableDeltas() {
		if _, err := h.Apply(context.Background(), d); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := h.CompactIfNeeded(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	ds := h.(DurabilityReporter).DurabilityStats()
	if ds.Checkpoints == 0 || ds.JournalRecords != 0 {
		t.Errorf("post-compact durability stats %+v", ds)
	}
	want := dumpsOf(t, h)
	h.(io.Closer).Close()
	h2, err := Open(context.Background(), nil, app, WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer h2.(io.Closer).Close()
	if got := dumpsOf(t, h2); !reflect.DeepEqual(got, want) {
		t.Error("post-checkpoint recovery diverged")
	}
	for _, ri := range h2.(DurabilityReporter).DurabilityStats().Recovery {
		if ri.ReplayedRecords != 0 {
			t.Errorf("recovery replayed %d records after a checkpoint", ri.ReplayedRecords)
		}
	}
	// An explicit Checkpoint is available too.
	if err := h2.(Checkpointer).Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestDurableOpenErrors: the option-validation matrix for WithDataDir.
func TestDurableOpenErrors(t *testing.T) {
	_, app, build := fooddbIndex(t)
	dir := t.TempDir()

	if _, err := Open(context.Background(), build(), app, WithDataDir("")); err == nil {
		t.Error("empty data dir accepted")
	}
	if _, err := Open(context.Background(), build(), app, WithDataDir(dir), WithReadOnly()); err == nil {
		t.Error("read-only durable handle accepted")
	}
	if _, err := Open(context.Background(), nil, app, WithDataDir(dir)); err == nil {
		t.Error("nil index accepted for a fresh data dir")
	}
	if _, err := Open(context.Background(), nil, app); err == nil {
		t.Error("nil index accepted without a data dir")
	}

	h, err := Open(context.Background(), build(), app, WithShards(2), WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	h.(io.Closer).Close()
	if _, err := Open(context.Background(), build(), app, WithDataDir(dir)); err == nil {
		t.Error("built index accepted for an initialized data dir")
	}
	if _, err := Open(context.Background(), nil, app, WithShards(3), WithDataDir(dir)); err == nil {
		t.Error("shard mismatch accepted")
	}
	// Matching explicit shard count is fine.
	h2, err := Open(context.Background(), nil, app, WithShards(2), WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	h2.(io.Closer).Close()

	if _, err := Open(context.Background(), build(), app, WithDataDir(dir), WithSyncPolicy(SyncPolicy{Mode: "sometimes"})); err == nil {
		t.Error("unknown sync mode accepted")
	}
}

// TestDurableInterfaceSurface: a durable handle answers the durability
// contracts with its store — healthy state, per-shard stats, checkpoints
// that count, a clean Close — while a plain in-memory handle answers them
// empty (no state, zero stats, a no-op Checkpoint) and still queues.
func TestDurableInterfaceSurface(t *testing.T) {
	_, app, build := fooddbIndex(t)
	ctx := context.Background()
	h, err := Open(ctx, build(), app, WithDataDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	if st := h.(DurabilityHealth).DurabilityState(); st != DurabilityHealthy {
		t.Errorf("durable state = %q, want %q", st, DurabilityHealthy)
	}
	if n, err := h.(Queuer).Queue(burgerDelta()); err != nil || n != 1 {
		t.Errorf("durable Queue = %d, %v; want 1 queued", n, err)
	}
	if _, err := h.(Queuer).Flush(ctx); err != nil {
		t.Errorf("durable Flush: %v", err)
	}
	if err := h.(Checkpointer).Checkpoint(ctx); err != nil {
		t.Errorf("durable Checkpoint: %v", err)
	}
	if ds := h.(DurabilityReporter).DurabilityStats(); ds.Shards != 1 || ds.Checkpoints == 0 {
		t.Errorf("durable stats = %+v", ds)
	}
	if h.Stats().Durability == nil {
		t.Error("durable handle reports no durability block")
	}
	if err := h.(io.Closer).Close(); err != nil {
		t.Errorf("durable Close: %v", err)
	}

	plain, err := Open(ctx, build(), app)
	if err != nil {
		t.Fatal(err)
	}
	if st := plain.(DurabilityHealth).DurabilityState(); st != "" {
		t.Errorf("in-memory state = %q, want none", st)
	}
	if ds := plain.(DurabilityReporter).DurabilityStats(); ds.Shards != 0 || ds.Checkpoints != 0 {
		t.Errorf("in-memory handle reports a store: %+v", ds)
	}
	if err := plain.(Checkpointer).Checkpoint(ctx); err != nil {
		t.Errorf("in-memory Checkpoint: %v", err)
	}
	if plain.Stats().Durability != nil {
		t.Error("in-memory handle reports a durability block")
	}
	if n, err := plain.(Queuer).Queue(Delta{}); err != nil || n != 1 {
		t.Errorf("in-memory Queue = %d, %v; want 1 queued", n, err)
	}
}
