package dash

// Satellite: the leader/replica equivalence property. A replica that
// bootstrapped from the leader's snapshots and tailed its journal answers
// every query identically to the leader at every converged epoch — the
// whole point of byte-identical replication. The mutation stream is
// random but reproducible (fixed seed), and mid-stream the leader
// checkpoints (journal rotation) and compacts (a record-free epoch
// advance) to cover the paths where tail resumption is subtle.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/relation"
)

var equivVocab = []string{
	"burger", "coffee", "noodles", "herring", "rye", "pickle",
	"dill", "sprat", "smoke", "akvavit", "quinoa", "fusion",
}

var equivCuisines = []string{"Nordic", "Baltic", "Fusion", "Andean", "American"}

// equivQueries is the battery both sides answer after every converged
// round: single terms, conjunctions, and a guaranteed miss.
var equivQueries = [][]string{
	{"burger"}, {"coffee"}, {"herring"}, {"dill", "sprat"},
	{"burger", "coffee"}, {"quinoa"}, {"zzz-absent"},
}

// equivMutator generates a reproducible random mutation stream: inserts
// of fresh fragments, updates and removes of live ones.
type equivMutator struct {
	rng  *rand.Rand
	live []FragmentID
	next int64
}

func (m *equivMutator) randCounts() (map[string]int64, int64) {
	n := 1 + m.rng.Intn(4)
	counts := make(map[string]int64, n)
	var total int64
	for i := 0; i < n; i++ {
		w := equivVocab[m.rng.Intn(len(equivVocab))]
		c := int64(1 + m.rng.Intn(5))
		counts[w] += c
		total += c
	}
	return counts, total + int64(m.rng.Intn(3))
}

func (m *equivMutator) delta() Delta {
	roll := m.rng.Float64()
	switch {
	case roll < 0.55 || len(m.live) == 0:
		m.next++
		id := FragmentID{relation.String(equivCuisines[m.rng.Intn(len(equivCuisines))]), relation.Int(m.next)}
		m.live = append(m.live, id)
		counts, total := m.randCounts()
		return Delta{Changes: []FragmentChange{{
			Op: OpInsertFragment, ID: id, TermCounts: counts, TotalTerms: total,
		}}}
	case roll < 0.85:
		id := m.live[m.rng.Intn(len(m.live))]
		counts, total := m.randCounts()
		return Delta{Changes: []FragmentChange{{
			Op: OpUpdateFragment, ID: id, TermCounts: counts, TotalTerms: total,
		}}}
	default:
		k := m.rng.Intn(len(m.live))
		id := m.live[k]
		m.live = append(m.live[:k], m.live[k+1:]...)
		return Delta{Changes: []FragmentChange{{Op: crawlOpRemove, ID: id}}}
	}
}

// crawlOpRemove keeps the mutator readable; it is just the re-exported op.
const crawlOpRemove = OpRemoveFragment

// serveReplication mounts a leader handle's replication transport the way
// dashserve does and returns the leader base URL.
func serveReplication(t *testing.T, h Handle) string {
	t.Helper()
	rep, ok := h.(Replicable)
	if !ok {
		t.Fatalf("handle %T is not Replicable", h)
	}
	mux := http.NewServeMux()
	mux.Handle(ReplicationPrefix+"/", http.StripPrefix(ReplicationPrefix, rep.ReplicationHandler()))
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv.URL
}

// waitReplicaConverged blocks until every shard's applied epoch equals the
// leader's durable epoch for that shard.
func waitReplicaConverged(t *testing.T, leader, rep Handle) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		ds := durabilityOf(t, leader)
		rs := rep.(*ServingEngine).ReplicationStats()
		converged := len(ds.PerShard) == len(rs.PerShard) && len(ds.PerShard) > 0
		for i := range ds.PerShard {
			if !converged || rs.PerShard[i].AppliedEpoch != ds.PerShard[i].DurableEpoch {
				converged = false
				break
			}
		}
		if converged {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never converged: leader %+v, replica %+v", ds.PerShard, rs.PerShard)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReplicaLeaderEquivalenceProperty drives a reproducible random
// mutation stream through a durable leader while a live replica tails it,
// and at every converged epoch asserts (a) the full query battery answers
// identically and (b) the canonical per-shard dumps are deep-equal —
// including across a mid-stream checkpoint (journal rotation) and a
// mid-stream compaction (epoch advance with no journal record).
func TestReplicaLeaderEquivalenceProperty(t *testing.T) {
	_, app, build := fooddbIndex(t)
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			h, err := Open(context.Background(), build(), app,
				WithShards(shards), WithDataDir(t.TempDir()))
			if err != nil {
				t.Fatal(err)
			}
			defer h.(io.Closer).Close()
			leaderURL := serveReplication(t, h)

			rep, err := OpenReplica(context.Background(), leaderURL, app,
				WithReplicaPoll(100*time.Millisecond, 5*time.Millisecond))
			if err != nil {
				t.Fatal(err)
			}
			defer rep.(io.Closer).Close()

			// next starts past the seed corpus's version numbers so random
			// inserts never collide with fooddb's own fragments.
			m := &equivMutator{rng: rand.New(rand.NewSource(int64(shards)*7919 + 17)), next: 1000}
			const rounds = 10
			for round := 0; round < rounds; round++ {
				burst := 1 + m.rng.Intn(3)
				for i := 0; i < burst; i++ {
					if _, err := h.Apply(context.Background(), m.delta()); err != nil {
						t.Fatalf("round %d: %v", round, err)
					}
				}
				switch round {
				case rounds / 2:
					// Journal rotation mid-stream: the tail cursor must
					// carry across the segment boundary.
					if err := h.(*ServingEngine).Checkpoint(context.Background()); err != nil {
						t.Fatal(err)
					}
				case rounds - 2:
					// Compaction bumps the leader's epoch without writing a
					// journal record; the replica must stamp the advance.
					if _, err := h.CompactIfNeeded(context.Background(), 0); err != nil {
						t.Fatal(err)
					}
				}
				waitReplicaConverged(t, h, rep)

				if got, want := searchAll(t, rep, equivQueries...), searchAll(t, h, equivQueries...); !reflect.DeepEqual(got, want) {
					t.Fatalf("round %d: replica answers diverged from leader\n got %+v\nwant %+v", round, got, want)
				}
				if got, want := dumpsOf(t, rep), dumpsOf(t, h); !reflect.DeepEqual(got, want) {
					t.Fatalf("round %d: canonical replica state diverged", round)
				}
			}
			rs := rep.Stats()
			if rs.Replication == nil || rs.Replication.State != "tailing" || rs.Replication.MaxLag != 0 {
				t.Errorf("replication stats block after the final round = %+v", rs.Replication)
			}
		})
	}
}

// TestWithReplicasOptionSurface: option validation and the routing
// leader's shape — WithReplicas needs a durable handle, placement falls
// back to the leader while no replica qualifies, and Stats grows the
// router block.
func TestWithReplicasOptionSurface(t *testing.T) {
	_, app, build := fooddbIndex(t)

	if _, err := Open(context.Background(), build(), app, WithReplicas("http://localhost:1")); err == nil {
		t.Error("WithReplicas without WithDataDir accepted")
	}
	if _, err := Open(context.Background(), build(), app, WithDataDir(t.TempDir()), WithReplicas()); err == nil {
		t.Error("WithReplicas() with no URLs accepted")
	}
	if _, err := Open(context.Background(), build(), app, WithDataDir(t.TempDir()),
		WithReplicas("http://localhost:1"), WithStalenessBound(0)); err == nil {
		t.Error("WithStalenessBound(0) accepted")
	}

	h, err := Open(context.Background(), build(), app, WithDataDir(t.TempDir()),
		WithReplicas("http://127.0.0.1:1"), WithStalenessBound(8))
	if err != nil {
		t.Fatal(err)
	}
	defer h.(io.Closer).Close()
	sr := h.(*ServingEngine)
	// The only configured replica is unreachable, so every placement falls
	// back to serving locally.
	if target, proxy := sr.RouteSearch(Request{MinEpoch: 1}); proxy {
		t.Errorf("routed to unreachable replica %q", target)
	}
	st := h.Stats()
	if st.Replicas == nil || len(st.Replicas.Replicas) != 1 || st.Replicas.Replicas[0].Healthy {
		t.Errorf("router stats block = %+v", st.Replicas)
	}
}

// TestReplicaHandleContract: the replica handle honors the read-only
// contract and the staleness surface — every Maintainer method refuses
// with ErrReplicaReadOnly, MinEpoch gates Search, and RouteSearch points
// unsatisfiable reads at the leader.
func TestReplicaHandleContract(t *testing.T) {
	_, app, build := fooddbIndex(t)
	h, err := Open(context.Background(), build(), app, WithDataDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer h.(io.Closer).Close()
	leaderURL := serveReplication(t, h)

	rep, err := OpenReplica(context.Background(), leaderURL, app,
		WithReplicaPoll(100*time.Millisecond, 5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer rep.(io.Closer).Close()
	waitReplicaConverged(t, h, rep)

	d := Delta{Changes: []FragmentChange{{
		Op: OpInsertFragment, ID: FragmentID{relation.String("Nordic"), relation.Int(99)},
		TermCounts: map[string]int64{"herring": 1}, TotalTerms: 1,
	}}}
	if _, err := rep.Apply(context.Background(), d); err != ErrReplicaReadOnly {
		t.Errorf("Apply on replica = %v, want ErrReplicaReadOnly", err)
	}
	if _, err := rep.ApplyBatch(context.Background(), []Delta{d}); err != ErrReplicaReadOnly {
		t.Errorf("ApplyBatch on replica = %v, want ErrReplicaReadOnly", err)
	}
	if _, err := rep.CompactIfNeeded(context.Background(), 0.5); err != ErrReplicaReadOnly {
		t.Errorf("CompactIfNeeded on replica = %v, want ErrReplicaReadOnly", err)
	}

	re := rep.(*ServingEngine)
	applied := re.ReplicationStats().MinApplied
	// Satisfiable MinEpoch: served locally, no routing.
	if _, err := rep.Search(context.Background(), Request{Keywords: []string{"burger"}, K: 3, SizeThreshold: 25, MinEpoch: applied}); err != nil {
		t.Errorf("satisfiable MinEpoch search: %v", err)
	}
	if target, proxy := re.RouteSearch(Request{MinEpoch: applied}); proxy {
		t.Errorf("RouteSearch proxied a satisfiable read to %q", target)
	}
	// Unsatisfiable MinEpoch: Search refuses, RouteSearch points at the
	// leader.
	future := applied + 1000
	if _, err := rep.Search(context.Background(), Request{Keywords: []string{"burger"}, K: 3, SizeThreshold: 25, MinEpoch: future}); err == nil {
		t.Error("future MinEpoch search served stale data")
	}
	target, proxy := re.RouteSearch(Request{MinEpoch: future})
	if !proxy || target != leaderURL {
		t.Errorf("RouteSearch(future) = %q, %v, want leader", target, proxy)
	}
	// Batch: the behind slot errors, the live slot answers.
	batch := rep.SearchBatch(context.Background(), []Request{
		{Keywords: []string{"burger"}, K: 3, SizeThreshold: 25, MinEpoch: future},
		{Keywords: []string{"burger"}, K: 3, SizeThreshold: 25},
	})
	if len(batch) != 2 || batch[0].Err == nil || batch[1].Err != nil {
		t.Errorf("batch staleness split = %+v", batch)
	}
}

// TestReplicaMinEpochPinnedView: a replica checks MinEpoch against the
// epoch it had applied before it pinned, so a replicated publish landing
// right after the pin cannot let a read that demands the new epoch be
// answered from the older pinned view. Each read either refuses with
// ErrReplicaBehind or sees the demanded epoch's insert — through Search and
// through SearchBatch.
func TestReplicaMinEpochPinnedView(t *testing.T) {
	ctx := context.Background()
	_, app, build := fooddbIndex(t)
	h, err := Open(ctx, build(), app, WithDataDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer h.(io.Closer).Close()
	rep, err := OpenReplica(ctx, serveReplication(t, h), app,
		WithReplicaPoll(100*time.Millisecond, 5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer rep.(io.Closer).Close()
	waitReplicaConverged(t, h, rep)
	e := rep.(*ServingEngine)

	for round, kw := range []string{"zanzibar", "quokka"} {
		var once sync.Once
		publish := func() {
			once.Do(func() {
				if _, err := h.Apply(ctx, Delta{Changes: []FragmentChange{{
					Op: OpInsertFragment, ID: FragmentID{relation.String("Nordic"), relation.Int(int64(200 + round))},
					TermCounts: map[string]int64{kw: 1}, TotalTerms: 1,
				}}}); err != nil {
					t.Fatal(err)
				}
				waitReplicaConverged(t, h, rep)
			})
		}
		// The insert is the next epoch; the replica applies it between the
		// read's pin and the rest of its search path.
		req := Request{Keywords: []string{kw}, K: 1, SizeThreshold: 20, MinEpoch: e.applied() + 1}
		e.pinned = publish
		var res []Result
		if round == 0 {
			res, err = rep.Search(ctx, req)
		} else {
			out := rep.SearchBatch(ctx, []Request{req})
			res, err = out[0].Results, out[0].Err
		}
		e.pinned = nil
		if err != nil && !errors.Is(err, ErrReplicaBehind) || err == nil && len(res) == 0 {
			t.Fatalf("round %d: MinEpoch %d read = %d results, %v: answered from a view older than the epoch it demanded",
				round, req.MinEpoch, len(res), err)
		}
		publish()
		if res, err = rep.Search(ctx, req); err != nil || len(res) == 0 {
			t.Fatalf("round %d: MinEpoch %d read after the publish = %d results, %v", round, req.MinEpoch, len(res), err)
		}
	}
}

// TestCheckpointDumpRaceReplicates is the checkpoint dump/rotation race at
// the facade: Checkpoint cuts a shard's Dump and then rotates the journal, so an apply can land in between. A replica that
// bootstraps from the new snapshot must still receive that apply's record
// — on the parent it was stamped past as a record-free advance and the
// replica silently lacked the delta.
func TestCheckpointDumpRaceReplicates(t *testing.T) {
	ctx := context.Background()
	_, app, build := fooddbIndex(t)
	h, err := Open(ctx, build(), app, WithDataDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer h.(io.Closer).Close()
	e := h.(*ServingEngine)
	m := &equivMutator{rng: rand.New(rand.NewSource(41)), next: 1000}
	for i := 0; i < 3; i++ {
		if _, err := h.Apply(ctx, m.delta()); err != nil {
			t.Fatal(err)
		}
	}

	// The interleaving Checkpoint admits: Dump, Apply, then the store
	// checkpoint of the (now stale) dump.
	dump := e.live.Shard(0).Dump()
	if _, err := h.Apply(ctx, m.delta()); err != nil {
		t.Fatal(err)
	}
	if err := e.store.Checkpoint(ctx, 0, dump); err != nil {
		t.Fatal(err)
	}

	rep, err := OpenReplica(ctx, serveReplication(t, h), app,
		WithReplicaPoll(100*time.Millisecond, 5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer rep.(io.Closer).Close()
	waitReplicaConverged(t, h, rep)
	if got, want := dumpsOf(t, rep), dumpsOf(t, h); !reflect.DeepEqual(got, want) {
		t.Fatal("replica converged on the leader's epoch without the apply journaled during the checkpoint")
	}
	if got, want := searchAll(t, rep, equivQueries...), searchAll(t, h, equivQueries...); !reflect.DeepEqual(got, want) {
		t.Fatalf("replica answers diverged from leader\n got %+v\nwant %+v", got, want)
	}
}

// TestReplicaCacheSwept: a replica's result cache retires the entries its
// replicated publishes superseded, with no signal from the tail. Each round
// publishes on the leader and reads once at the replica's new epoch. The
// new entry lands in one of the cache's 16 shards and drops every older
// entry there, so the cache never holds more than 16 entries, and at least
// rounds-16 of the puts land on an older entry and sweep it. Which shard
// each epoch's key hashes to is random, so neither count is exact.
func TestReplicaCacheSwept(t *testing.T) {
	ctx := context.Background()
	_, app, build := fooddbIndex(t)
	h, err := Open(ctx, build(), app, WithDataDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer h.(io.Closer).Close()
	rep, err := OpenReplica(ctx, serveReplication(t, h), app,
		WithReplicaPoll(100*time.Millisecond, 5*time.Millisecond), WithResultCache(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer rep.(io.Closer).Close()
	cacheOf := func() CacheStats { return *rep.Stats().Cache }
	req := Request{Keywords: []string{"burger"}, K: 3, SizeThreshold: 20}
	const rounds, cacheShards = 24, 16
	for i := 0; i < rounds; i++ {
		if _, err := h.Apply(ctx, Delta{Changes: []FragmentChange{{
			Op: OpUpdateFragment, ID: FragmentID{relation.String("American"), relation.Int(10)},
			TermCounts: map[string]int64{"burger": int64(i + 2)}, TotalTerms: int64(i + 2),
		}}}); err != nil {
			t.Fatal(err)
		}
		waitReplicaConverged(t, h, rep)
		if _, st, err := rep.(CachedSearcher).SearchStatus(ctx, req); err != nil || st != CacheMiss {
			t.Fatalf("round %d: read at the new epoch = %s, %v, want a miss", i, st, err)
		}
		if c := cacheOf(); c.Entries > cacheShards || c.Entries+int(c.Swept) != i+1 || c.Evictions != 0 {
			t.Fatalf("round %d: cache = %+v, want at most %d entries and every other put swept, none evicted", i, c, cacheShards)
		}
	}
	if c := cacheOf(); c.Swept < rounds-cacheShards || c.Bytes <= 0 {
		t.Errorf("cache after %d replicated publishes = %+v, want at least %d swept", rounds, c, rounds-cacheShards)
	}
}
