package dash

import (
	"context"
	"io"
	"reflect"
	"testing"
	"time"

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

// durabilityOf returns a durable handle's store report.
func durabilityOf(t *testing.T, h Handle) DurabilityStats {
	t.Helper()
	ds := h.Stats().Durability
	if ds == nil {
		t.Fatal("handle reports no durability block")
	}
	return *ds
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
			ds := durabilityOf(t, h)
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
			ds2 := durabilityOf(t, h2)
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
	q := h.(*ServingEngine)
	before := durabilityOf(t, h).JournalRecords
	for i, d := range durableDeltas()[:3] {
		if got, err := q.Queue(d); err != nil || got != i+1 {
			t.Errorf("Queue #%d returned %d, %v", i+1, got, err)
		}
	}
	if got := durabilityOf(t, h).JournalRecords; got != before {
		t.Errorf("queueing journaled: %d -> %d records", before, got)
	}
	rep, err := q.Flush(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total.Deltas != 3 {
		t.Errorf("flush report %+v", rep)
	}
	if got := durabilityOf(t, h).JournalRecords; got != before+1 {
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
	ds := durabilityOf(t, h)
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
	for _, ri := range durabilityOf(t, h2).Recovery {
		if ri.ReplayedRecords != 0 {
			t.Errorf("recovery replayed %d records after a checkpoint", ri.ReplayedRecords)
		}
	}
	// An explicit Checkpoint is available too.
	if err := h2.(*ServingEngine).Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestDumpDoesNotWaitOnWriter: a shard's Dump and a Checkpoint are cut
// from the published snapshot, never behind the writer's lock. An apply
// parked inside its publish hook — journaled, not yet swapped in, holding
// the shard's writer lock — blocks neither: both return at the pre-apply
// epoch, the checkpoint carries the parked record into its new journal,
// and once the apply is released a reopen recovers exactly what an
// in-memory twin applying the same deltas holds.
func TestDumpDoesNotWaitOnWriter(t *testing.T) {
	ctx := context.Background()
	_, app, build := fooddbIndex(t)
	dir := t.TempDir()
	h, err := Open(ctx, build(), app, WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	twin, err := Open(ctx, build(), app)
	if err != nil {
		t.Fatal(err)
	}
	deltas := durableDeltas()
	for _, hd := range []Handle{h, twin} {
		if _, err := hd.Apply(ctx, deltas[0]); err != nil {
			t.Fatal(err)
		}
	}
	e := h.(*ServingEngine)
	shard := e.live.Shard(0)
	pre := shard.Snapshot().Epoch()
	parked, release := make(chan struct{}), make(chan struct{})
	var parkedEpoch uint64
	shard.SetPublishHook(func(ctx context.Context, d Delta, epoch uint64) error {
		if err := e.store.Append(ctx, 0, d, epoch); err != nil {
			return err
		}
		parkedEpoch = epoch
		close(parked)
		<-release
		return nil
	})
	applied := make(chan error, 1)
	go func() {
		_, err := h.Apply(ctx, deltas[1])
		applied <- err
	}()
	<-parked

	// within fails the test when f does not return while the writer is parked.
	within := func(what string, f func()) {
		t.Helper()
		done := make(chan struct{})
		go func() {
			defer close(done)
			f()
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			close(release)
			t.Fatalf("%s waited on the parked writer", what)
		}
	}
	var d *fragindex.Dump
	within("Dump", func() { d = shard.Dump() })
	if d.Epoch != pre {
		t.Errorf("Dump epoch = %d while the apply is parked, want the published %d", d.Epoch, pre)
	}
	var cerr error
	within("Checkpoint", func() { cerr = e.Checkpoint(ctx) })
	if cerr != nil {
		t.Fatal(cerr)
	}
	if ds := durabilityOf(t, h); ds.LastCheckpointEpoch != pre || ds.JournalRecords != 1 {
		t.Errorf("checkpoint at epoch %d carrying %d journal records, want epoch %d carrying the parked record",
			ds.LastCheckpointEpoch, ds.JournalRecords, pre)
	}

	close(release)
	if err := <-applied; err != nil {
		t.Fatal(err)
	}
	if got := shard.Snapshot().Epoch(); got != parkedEpoch || got <= pre {
		t.Errorf("released apply published epoch %d, want the journaled %d past %d", got, parkedEpoch, pre)
	}
	if _, err := twin.Apply(ctx, deltas[1]); err != nil {
		t.Fatal(err)
	}
	if err := h.(io.Closer).Close(); err != nil {
		t.Fatal(err)
	}
	h2, err := Open(ctx, nil, app, WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer h2.(io.Closer).Close()
	if got, want := dumpsOf(t, h2), dumpsOf(t, twin); !reflect.DeepEqual(got, want) {
		t.Error("recovery lost the record journaled while the checkpoint ran")
	}
	if ri := durabilityOf(t, h2).Recovery[0]; ri.SnapshotEpoch != pre || ri.ReplayedRecords != 1 {
		t.Errorf("recovery %+v, want the epoch-%d snapshot plus the parked record", ri, pre)
	}
}

// TestDurableOpenErrors: the option-validation matrix for WithDataDir.
func TestDurableOpenErrors(t *testing.T) {
	_, app, build := fooddbIndex(t)
	dir := t.TempDir()

	if _, err := Open(context.Background(), build(), app, WithDataDir("")); err == nil {
		t.Error("empty data dir accepted")
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
// methods with its store — healthy state, per-shard stats, checkpoints
// that count, a clean Close — while a plain in-memory handle answers them
// empty (no state, no durability block, a no-op Checkpoint) and still
// queues.
func TestDurableInterfaceSurface(t *testing.T) {
	_, app, build := fooddbIndex(t)
	ctx := context.Background()
	opened, err := Open(ctx, build(), app, WithDataDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	h := opened.(*ServingEngine)
	if st := h.DurabilityState(); st != DurabilityHealthy {
		t.Errorf("durable state = %q, want %q", st, DurabilityHealthy)
	}
	if n, err := h.Queue(burgerDelta()); err != nil || n != 1 {
		t.Errorf("durable Queue = %d, %v; want 1 queued", n, err)
	}
	if _, err := h.Flush(ctx); err != nil {
		t.Errorf("durable Flush: %v", err)
	}
	if err := h.Checkpoint(ctx); err != nil {
		t.Errorf("durable Checkpoint: %v", err)
	}
	if ds := durabilityOf(t, h); ds.Shards != 1 || ds.Checkpoints == 0 {
		t.Errorf("durable stats = %+v", ds)
	}
	if err := h.Close(); err != nil {
		t.Errorf("durable Close: %v", err)
	}

	opened, err = Open(ctx, build(), app)
	if err != nil {
		t.Fatal(err)
	}
	plain := opened.(*ServingEngine)
	if st := plain.DurabilityState(); st != "" {
		t.Errorf("in-memory state = %q, want none", st)
	}
	if err := plain.Checkpoint(ctx); err != nil {
		t.Errorf("in-memory Checkpoint: %v", err)
	}
	if ds := plain.Stats().Durability; ds != nil {
		t.Errorf("in-memory handle reports a store: %+v", ds)
	}
	if n, err := plain.Queue(Delta{}); err != nil || n != 1 {
		t.Errorf("in-memory Queue = %d, %v; want 1 queued", n, err)
	}
}
