package dash

// Tests for the serving-layer result cache and admission control: cached
// responses are byte-identical to uncached ones on every topology, a
// publish is never served stale results, and shed requests surface
// ErrOverloaded.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"
	"time"

	"repro/internal/relation"
	"repro/internal/search"
)

// stripFragRefs blanks the snapshot-internal fragment identifiers so
// result comparison is over page content (the equivalence-test idiom —
// sharded topologies number refs per shard).
func stripFragRefs(rs []Result) []Result {
	out := append([]Result(nil), rs...)
	for i := range out {
		out[i].Fragments = make([]FragRef, len(out[i].Fragments))
	}
	return out
}

// TestCachedResponsesByteIdentical is the tentpole property: on every
// topology, a handle opened with WithResultCache answers exactly what the
// same handle answers without it — on the miss that populates the cache
// AND on the hit served from it — across a keyword × k × s sweep.
func TestCachedResponsesByteIdentical(t *testing.T) {
	_, app, build := fooddbIndex(t)
	ctx := context.Background()
	reference := search.New(build(), app)

	for name, opts := range map[string][]Option{
		"live":    nil,
		"sharded": {WithShards(3)},
	} {
		h, err := Open(context.Background(), build(), app, append([]Option{WithResultCache(1 << 20)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		cs, ok := h.(CachedSearcher)
		if !ok {
			t.Fatalf("%s: WithResultCache handle %T does not implement CachedSearcher", name, h)
		}
		keywords := append(reference.Snapshot().Keywords(), "nosuchword")
		for _, kw := range keywords {
			for _, k := range []int{1, 3} {
				req := Request{Keywords: []string{kw}, K: k, SizeThreshold: 20}
				want, err := reference.Search(ctx, req)
				if err != nil {
					t.Fatal(err)
				}
				miss, st1, err := cs.SearchStatus(ctx, req)
				if err != nil {
					t.Fatalf("%s %q: %v", name, kw, err)
				}
				hit, st2, err := cs.SearchStatus(ctx, req)
				if err != nil {
					t.Fatalf("%s %q: %v", name, kw, err)
				}
				if st1 != CacheMiss || st2 != CacheHit {
					t.Fatalf("%s %q: statuses %s/%s, want miss/hit", name, kw, st1, st2)
				}
				if !reflect.DeepEqual(stripFragRefs(miss), stripFragRefs(want)) {
					t.Fatalf("%s %q k=%d: uncached-path divergence:\n%+v\nvs\n%+v", name, kw, k, miss, want)
				}
				if !reflect.DeepEqual(hit, miss) {
					t.Fatalf("%s %q k=%d: cached hit diverges from its own miss:\n%+v\nvs\n%+v", name, kw, k, hit, miss)
				}
				// Keyword order must not matter: the canonical key makes a
				// permuted spelling the same entry.
				perm, st3, err := cs.SearchStatus(ctx, Request{Keywords: []string{kw, kw}, K: k, SizeThreshold: 20})
				if err != nil || st3 != CacheHit || !reflect.DeepEqual(perm, hit) {
					t.Fatalf("%s %q: duplicated-keyword spelling status %s err %v", name, kw, st3, err)
				}
			}
		}
		// The batch form: first batch misses, identical second batch hits,
		// both answer what the reference answers.
		reqs := []Request{
			{Keywords: []string{keywords[0]}, K: 2, SizeThreshold: 20},
			{Keywords: []string{keywords[1]}, K: 2, SizeThreshold: 20},
		}
		b1, bst1 := cs.SearchBatchStatus(ctx, reqs)
		b2, bst2 := cs.SearchBatchStatus(ctx, reqs)
		if bst2 != CacheHit {
			t.Fatalf("%s: repeat batch status %s/%s, want second hit", name, bst1, bst2)
		}
		for i := range reqs {
			if b1[i].Err != nil || b2[i].Err != nil {
				t.Fatalf("%s batch errs: %v / %v", name, b1[i].Err, b2[i].Err)
			}
			want, _ := reference.Search(ctx, reqs[i])
			if !reflect.DeepEqual(stripFragRefs(b1[i].Results), stripFragRefs(want)) ||
				!reflect.DeepEqual(b1[i].Results, b2[i].Results) {
				t.Fatalf("%s batch slot %d diverges", name, i)
			}
		}
		// Hit/miss counters surface through the unified stats.
		st := h.Stats()
		if st.Cache == nil || st.Cache.Hits == 0 || st.Cache.Misses == 0 {
			t.Fatalf("%s: stats cache block = %+v", name, st.Cache)
		}
	}
}

// burgerDelta inserts one synthetic fragment heavy in "burger" — a
// single-group change, so on a sharded topology it publishes on exactly
// one shard. Inserting changes every burger result (new page + DF shift).
func burgerDelta() Delta {
	return Delta{Changes: []FragmentChange{{
		Op: OpInsertFragment, ID: FragmentID{relation.String("Nordic"), relation.Int(3)},
		TermCounts: map[string]int64{"burger": 50}, TotalTerms: 50,
	}}}
}

// TestCacheCrossEpochStaleness: a publish must never serve a pre-publish
// result for a post-publish epoch — the next search after Apply reflects
// the new snapshot (and is a miss under the new epoch), on both live and
// sharded topologies.
func TestCacheCrossEpochStaleness(t *testing.T) {
	_, app, build := fooddbIndex(t)
	ctx := context.Background()

	for name, opts := range map[string][]Option{
		"live":    nil,
		"sharded": {WithShards(3)},
	} {
		h, err := Open(context.Background(), build(), app, append([]Option{WithResultCache(1 << 20)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		cs := h.(CachedSearcher)
		req := Request{Keywords: []string{"burger"}, K: 5, SizeThreshold: 20}

		before, st1, err := cs.SearchStatus(ctx, req)
		if err != nil || st1 != CacheMiss {
			t.Fatalf("%s: warmup %s err %v", name, st1, err)
		}
		if _, st2, _ := cs.SearchStatus(ctx, req); st2 != CacheHit {
			t.Fatalf("%s: second search %s, want hit", name, st2)
		}
		if len(before) == 0 {
			t.Fatalf("%s: no burger results to invalidate", name)
		}

		if _, err := h.Apply(ctx, burgerDelta()); err != nil {
			t.Fatalf("%s apply: %v", name, err)
		}

		after, st3, err := cs.SearchStatus(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if st3 != CacheMiss {
			t.Fatalf("%s: post-publish search was a %s — served under a stale epoch", name, st3)
		}
		if reflect.DeepEqual(after, before) {
			t.Fatalf("%s: post-publish results identical to pre-publish — stale", name)
		}
		// And the fresh result is itself cached under the new epoch.
		if again, st4, _ := cs.SearchStatus(ctx, req); st4 != CacheHit || !reflect.DeepEqual(again, after) {
			t.Fatalf("%s: new-epoch entry not cached (status %s)", name, st4)
		}
	}
}

// shardEpochs reads the per-shard serving epochs from the unified stats.
func shardEpochs(h Handle) []uint64 {
	st := h.Stats()
	out := make([]uint64, len(st.PerShard))
	for i, ls := range st.PerShard {
		out[i] = ls.Epoch
	}
	return out
}

// bumpedShard returns the single shard whose epoch advanced, failing the
// test if zero or several did.
func bumpedShard(t *testing.T, before, after []uint64) int {
	t.Helper()
	bumped := -1
	for i := range after {
		if after[i] != before[i] {
			if bumped >= 0 {
				t.Fatalf("publish touched shards %d and %d, want one", bumped, i)
			}
			bumped = i
		}
	}
	if bumped < 0 {
		t.Fatal("publish touched no shard")
	}
	return bumped
}

// TestCachePerShardPrecision: on a sharded topology a publish on one
// shard invalidates only the entries that pinned it — an entry for a
// keyword living wholly on another shard keeps answering as a hit.
func TestCachePerShardPrecision(t *testing.T) {
	_, app, build := fooddbIndex(t)
	ctx := context.Background()
	h, err := Open(context.Background(), build(), app, WithShards(3), WithResultCache(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	cs := h.(CachedSearcher)

	// Plant two synthetic fragments with unique keywords in groups that
	// route to different shards (found by probing which shard's epoch each
	// publish bumps — routing hashes the equality-group key, not something
	// to hardcode).
	insert := func(cuisine, kw string) int {
		t.Helper()
		epochs := shardEpochs(h)
		d := Delta{Changes: []FragmentChange{{
			Op: OpInsertFragment, ID: FragmentID{relation.String(cuisine), relation.Int(1)},
			TermCounts: map[string]int64{kw: 10}, TotalTerms: 25,
		}}}
		if _, err := h.Apply(ctx, d); err != nil {
			t.Fatal(err)
		}
		return bumpedShard(t, epochs, shardEpochs(h))
	}
	shardA := insert("SynthA", "zzzalpha")
	// Each probe uses a distinct keyword so rejected attempts (which still
	// inserted a fragment, possibly on shard A) cannot widen B's pin set.
	kwB, shardB := "", -1
	for i := 0; i < 40; i++ {
		kwB = fmt.Sprintf("zzzbeta%d", i)
		if shardB = insert(fmt.Sprintf("SynthB%d", i), kwB); shardB != shardA {
			break
		}
	}
	if shardB == shardA {
		t.Fatal("could not place two groups on distinct shards")
	}

	reqA := Request{Keywords: []string{"zzzalpha"}, K: 3, SizeThreshold: 20}
	reqB := Request{Keywords: []string{kwB}, K: 3, SizeThreshold: 20}
	for _, req := range []Request{reqA, reqB} {
		if _, st, err := cs.SearchStatus(ctx, req); err != nil || st != CacheMiss {
			t.Fatalf("warm %v: %s %v", req.Keywords, st, err)
		}
		if _, st, _ := cs.SearchStatus(ctx, req); st != CacheHit {
			t.Fatalf("warm repeat %v: %s", req.Keywords, st)
		}
	}

	// Touch only shard A (update the planted fragment's counts).
	epochs := shardEpochs(h)
	upd := Delta{Changes: []FragmentChange{{
		Op: OpUpdateFragment, ID: FragmentID{relation.String("SynthA"), relation.Int(1)},
		TermCounts: map[string]int64{"zzzalpha": 11}, TotalTerms: 26,
	}}}
	if _, err := h.Apply(ctx, upd); err != nil {
		t.Fatal(err)
	}
	if got := bumpedShard(t, epochs, shardEpochs(h)); got != shardA {
		t.Fatalf("update bumped shard %d, want %d", got, shardA)
	}

	if _, st, _ := cs.SearchStatus(ctx, reqA); st != CacheMiss {
		t.Errorf("touched-shard entry answered %s, want miss", st)
	}
	if _, st, _ := cs.SearchStatus(ctx, reqB); st != CacheHit {
		t.Errorf("untouched-shard entry answered %s, want hit — epoch keying is not per-shard", st)
	}
}

// TestCachedHandleCapabilities: the result cache changes what searches
// answer (miss, then hit) and nothing else — a cached live handle still queues
// and flushes, and a cached durable handle still checkpoints and reports
// its store. Without the option, searches bypass and Stats has no cache.
func TestCachedHandleCapabilities(t *testing.T) {
	_, app, build := fooddbIndex(t)
	ctx := context.Background()
	req := Request{Keywords: []string{"burger"}, K: 2, SizeThreshold: 20}
	missThenHit := func(name string, h Handle) {
		t.Helper()
		cs := h.(CachedSearcher)
		if _, st, err := cs.SearchStatus(ctx, req); err != nil || st != CacheMiss {
			t.Errorf("%s: first search %s, %v; want miss", name, st, err)
		}
		if _, st, err := cs.SearchStatus(ctx, req); err != nil || st != CacheHit {
			t.Errorf("%s: repeat search %s, %v; want hit", name, st, err)
		}
		if h.Stats().Cache == nil {
			t.Errorf("%s: cached handle reports no cache block", name)
		}
	}

	plain, err := Open(ctx, build(), app)
	if err != nil {
		t.Fatal(err)
	}
	if _, st, err := plain.(CachedSearcher).SearchStatus(ctx, req); err != nil || st != CacheBypass {
		t.Errorf("uncached search %s, %v; want bypass", st, err)
	}
	if plain.Stats().Cache != nil {
		t.Error("uncached handle reports a cache block")
	}

	live, err := Open(ctx, build(), app, WithResultCache(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	missThenHit("live", live)
	if n, err := live.(*ServingEngine).Queue(burgerDelta()); err != nil || n != 1 {
		t.Errorf("cached live Queue = %d, %v; want 1 queued", n, err)
	}
	if _, err := live.(*ServingEngine).Flush(ctx); err != nil {
		t.Errorf("cached live Flush: %v", err)
	}
	if _, st, err := live.(CachedSearcher).SearchStatus(ctx, req); err != nil || st != CacheMiss {
		t.Errorf("search after flush %s, %v; want miss", st, err)
	}
	if err := live.(*ServingEngine).Checkpoint(ctx); err != nil {
		t.Errorf("cached in-memory Checkpoint: %v", err)
	}
	if ds := live.Stats().Durability; ds != nil {
		t.Errorf("cached in-memory handle reports a store: %+v", ds)
	}

	durable, err := Open(ctx, build(), app, WithDataDir(t.TempDir()), WithShards(2), WithResultCache(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	missThenHit("durable", durable)
	if n, err := durable.(*ServingEngine).Queue(burgerDelta()); err != nil || n != 1 {
		t.Errorf("cached durable Queue = %d, %v; want 1 queued", n, err)
	}
	if _, err := durable.(*ServingEngine).Flush(ctx); err != nil {
		t.Errorf("cached durable Flush: %v", err)
	}
	if err := durable.(*ServingEngine).Checkpoint(ctx); err != nil {
		t.Errorf("cached durable Checkpoint: %v", err)
	}
	if ds := durabilityOf(t, durable); ds.Shards != 2 || ds.Checkpoints == 0 {
		t.Errorf("durability stats through the cache: %+v", ds)
	}
	if err := durable.(io.Closer).Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSearchBatchStatusBypass: a batch in which no slot reaches the cache
// reports CacheBypass, not a hit — every slot abandoned by a cancelled
// ctx on a cached leader, or refused with ErrReplicaBehind on a cached
// replica.
func TestSearchBatchStatusBypass(t *testing.T) {
	_, app, build := fooddbIndex(t)
	ctx := context.Background()
	reqs := []Request{
		{Keywords: []string{"burger"}, K: 2, SizeThreshold: 20},
		{Keywords: []string{"coffee"}, K: 2, SizeThreshold: 20},
	}
	leader, err := Open(ctx, build(), app, WithDataDir(t.TempDir()), WithResultCache(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer leader.(io.Closer).Close()
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	out, st := leader.(CachedSearcher).SearchBatchStatus(cancelled, reqs)
	if st != CacheBypass || !errors.Is(out[0].Err, context.Canceled) {
		t.Errorf("cancelled batch: status %s, slot err %v; want bypass, canceled", st, out[0].Err)
	}

	rep, err := OpenReplica(ctx, serveReplication(t, leader), app,
		WithReplicaPoll(100*time.Millisecond, 5*time.Millisecond), WithResultCache(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer rep.(io.Closer).Close()
	ahead := append([]Request(nil), reqs...)
	for i := range ahead {
		ahead[i].MinEpoch = 1 << 40
	}
	out, st = rep.(CachedSearcher).SearchBatchStatus(ctx, ahead)
	if st != CacheBypass || !errors.Is(out[0].Err, ErrReplicaBehind) {
		t.Errorf("refused batch: status %s, slot err %v; want bypass, ErrReplicaBehind", st, out[0].Err)
	}
	// The same replica reports hits once its slots do reach the cache.
	rep.SearchBatch(ctx, reqs)
	if _, st := rep.(CachedSearcher).SearchBatchStatus(ctx, reqs); st != CacheHit {
		t.Errorf("repeat batch status %s, want hit", st)
	}
}

// TestAdmissionControlHandle: a request whose deadline budget is below
// the floor sheds with ErrOverloaded before touching the engine; ample
// budgets serve normally; counters surface through Stats.
func TestAdmissionControlHandle(t *testing.T) {
	_, app, build := fooddbIndex(t)
	h, err := Open(context.Background(), build(), app, WithAdmissionControl(AdmissionOptions{MinBudget: 50 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Keywords: []string{"burger"}, K: 2, SizeThreshold: 20}

	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if _, err := h.Search(ctx, req); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("doomed-budget search err = %v, want ErrOverloaded", err)
	}
	// The batch form sheds every slot.
	batch := h.SearchBatch(ctx, []Request{req, req})
	for i, br := range batch {
		if !errors.Is(br.Err, ErrOverloaded) {
			t.Fatalf("shed batch slot %d err = %v", i, br.Err)
		}
	}

	if res, err := h.Search(context.Background(), req); err != nil || len(res) == 0 {
		t.Fatalf("deadline-free search: %v (%d results)", err, len(res))
	}
	st := h.Stats()
	if st.Admission == nil || st.Admission.ShedBudget < 2 || st.Admission.Admitted < 1 {
		t.Fatalf("admission stats = %+v", st.Admission)
	}
	if st.Cache != nil {
		t.Error("admission-only handle reports a cache block")
	}
}

// TestSearchAnswerShared: SearchAnswer hands out the cache's own answer —
// the miss and every later hit get the same *Answer, so an encoding
// memoized by one is what the next one reads — and Search/SearchStatus are
// views of it. An admission-only handle (no cache) answers a fresh,
// un-memoized answer with status bypass.
func TestSearchAnswerShared(t *testing.T) {
	_, app, build := fooddbIndex(t)
	ctx := context.Background()
	h, err := Open(ctx, build(), app, WithResultCache(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	cs := h.(CachedSearcher)
	req := Request{Keywords: []string{"burger"}, K: 3, SizeThreshold: 20}
	encodes := 0
	encode := func(res []Result) ([]byte, error) {
		encodes++
		return []byte(fmt.Sprint(len(res))), nil
	}

	miss, st, err := cs.SearchAnswer(ctx, req)
	if err != nil || st != CacheMiss {
		t.Fatalf("first SearchAnswer: %s, %v", st, err)
	}
	first, err := miss.Encoded(encode)
	if err != nil {
		t.Fatal(err)
	}
	// An equal-meaning spelling of the request is the same entry.
	hit, st, err := cs.SearchAnswer(ctx, Request{Keywords: []string{"Burger", "burger"}, K: 3, SizeThreshold: 20})
	if err != nil || st != CacheHit {
		t.Fatalf("repeat SearchAnswer: %s, %v", st, err)
	}
	if hit != miss {
		t.Fatal("the hit got an answer of its own, want the one the miss stored")
	}
	if again, err := hit.Encoded(encode); err != nil || &again[0] != &first[0] || encodes != 1 {
		t.Fatalf("hit re-encoded (%d encodes, err %v), want the memoized bytes", encodes, err)
	}
	res, st, err := cs.SearchStatus(ctx, req)
	if err != nil || st != CacheHit || !reflect.DeepEqual(res, miss.Results()) {
		t.Fatalf("SearchStatus is not a view of the shared answer: %s, %v", st, err)
	}
	if res, err := h.Search(ctx, req); err != nil || !reflect.DeepEqual(res, miss.Results()) {
		t.Fatalf("Search is not a view of the shared answer: %v", err)
	}

	admitOnly, err := Open(ctx, build(), app, WithAdmissionControl(AdmissionOptions{MaxInFlight: 4}))
	if err != nil {
		t.Fatal(err)
	}
	a1, st1, err1 := admitOnly.(CachedSearcher).SearchAnswer(ctx, req)
	a2, st2, err2 := admitOnly.(CachedSearcher).SearchAnswer(ctx, req)
	if err1 != nil || err2 != nil || st1 != CacheBypass || st2 != CacheBypass {
		t.Fatalf("cache-less SearchAnswer: %s/%s, %v/%v", st1, st2, err1, err2)
	}
	if a1 == a2 || !reflect.DeepEqual(a1.Results(), a2.Results()) {
		t.Fatal("cache-less handle must answer fresh, equal answers")
	}
}

// TestSearchAnswerHitAllocs is the facade half of the hit-path floor: a
// cached hit through SearchAnswer normalizes the request, pins the view,
// builds the key and probes — 3 allocations measured (the normalized
// keyword slice, the pinned-view slice and the key) — and never the miss
// path's closure, pin copy or engine scratch.
func TestSearchAnswerHitAllocs(t *testing.T) {
	_, app, build := fooddbIndex(t)
	ctx := context.Background()
	h, err := Open(ctx, build(), app, WithResultCache(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	cs := h.(CachedSearcher)
	req := Request{Keywords: []string{"burger", "coffee"}, K: 10, SizeThreshold: 200}
	if _, _, err := cs.SearchAnswer(ctx, req); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, st, err := cs.SearchAnswer(ctx, req); err != nil || st != CacheHit {
			t.Fatalf("SearchAnswer: %s, %v", st, err)
		}
	})
	t.Logf("facade hit: %.0f allocs", allocs)
	if allocs > 3 {
		t.Errorf("a cached hit through SearchAnswer costs %.0f allocations, budget 3", allocs)
	}
}
