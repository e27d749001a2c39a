package search

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestNormalizeRequestCanonical: normalization is idempotent and folds
// every spelling of the same request — keyword order, duplicates, case,
// multi-word strings, the negative explicit-unlimited CandidateLimit —
// onto one canonical form.
func TestNormalizeRequestCanonical(t *testing.T) {
	base := NormalizeRequest(Request{Keywords: []string{"burger", "coffee"}, K: 3, SizeThreshold: 20})
	for _, kws := range [][]string{
		{"coffee", "burger"},
		{"burger", "coffee", "burger"},
		{"Coffee", "BURGER"},
		{"coffee burger"},
		{"burger", "", "coffee"},
	} {
		got := NormalizeRequest(Request{Keywords: kws, K: 3, SizeThreshold: 20})
		if !reflect.DeepEqual(got, base) {
			t.Errorf("NormalizeRequest(%q) = %+v, want %+v", kws, got, base)
		}
	}
	if again := NormalizeRequest(base); !reflect.DeepEqual(again, base) {
		t.Errorf("normalization not idempotent: %+v -> %+v", base, again)
	}
	if got := NormalizeRequest(Request{Keywords: []string{"a"}, K: 1, CandidateLimit: -5}); got.CandidateLimit != 0 {
		t.Errorf("negative CandidateLimit folded to %d, want 0", got.CandidateLimit)
	}
	if got := NormalizeRequest(Request{Keywords: []string{"a"}, K: 1, CandidateLimit: 7}); got.CandidateLimit != 7 {
		t.Errorf("positive CandidateLimit = %d, want 7", got.CandidateLimit)
	}
}

// TestNormalizeRequestPreservesResults is the satellite property test:
// normalizing a request never changes what a search returns —
// byte-identical results for every permutation/duplication of the keyword
// list, which is exactly what lets the cache key on the canonical form.
func TestNormalizeRequestPreservesResults(t *testing.T) {
	e := fooddbEngine(t)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	words := []string{"burger", "coffee", "pizza", "thai", "sushi"}
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(len(words))
		kws := make([]string, 0, n+2)
		for i := 0; i < n; i++ {
			kws = append(kws, words[rng.Intn(len(words))])
		}
		req := Request{Keywords: kws, K: 1 + rng.Intn(5), SizeThreshold: 10 + rng.Intn(40)}
		raw, rawErr := e.Search(ctx, req)
		norm, normErr := e.Search(ctx, NormalizeRequest(req))
		if !errors.Is(rawErr, normErr) && (rawErr == nil) != (normErr == nil) {
			t.Fatalf("trial %d (%q): raw err %v, normalized err %v", trial, kws, rawErr, normErr)
		}
		if !reflect.DeepEqual(raw, norm) {
			t.Fatalf("trial %d (%q): normalized request changed results:\nraw:  %+v\nnorm: %+v",
				trial, kws, raw, norm)
		}
	}
}

// TestCacheKeyDistinguishes: the key separates every request dimension
// and the pinned epochs, and collapses equal-meaning requests.
func TestCacheKeyDistinguishes(t *testing.T) {
	pins := []EpochPin{{Shard: 0, Epoch: 3}}
	base := NormalizeRequest(Request{Keywords: []string{"a", "b"}, K: 2, SizeThreshold: 10})
	keys := map[string]string{}
	add := func(name string, req Request, p []EpochPin) {
		k := CacheKey(NormalizeRequest(req), p)
		if prev, ok := keys[k]; ok {
			t.Errorf("%s collides with %s: %q", name, prev, k)
		}
		keys[k] = name
	}
	add("base", base, pins)
	add("k", Request{Keywords: []string{"a", "b"}, K: 3, SizeThreshold: 10}, pins)
	add("s", Request{Keywords: []string{"a", "b"}, K: 2, SizeThreshold: 11}, pins)
	add("limit", Request{Keywords: []string{"a", "b"}, K: 2, SizeThreshold: 10, CandidateLimit: 4}, pins)
	add("overlap", Request{Keywords: []string{"a", "b"}, K: 2, SizeThreshold: 10, AllowOverlap: true}, pins)
	add("requireAll", Request{Keywords: []string{"a", "b"}, K: 2, SizeThreshold: 10, RequireAll: true}, pins)
	add("keywords", Request{Keywords: []string{"a", "c"}, K: 2, SizeThreshold: 10}, pins)
	add("epoch", base, []EpochPin{{Shard: 0, Epoch: 4}})
	add("shard", base, []EpochPin{{Shard: 1, Epoch: 3}})
	add("two shards", base, []EpochPin{{Shard: 0, Epoch: 3}, {Shard: 1, Epoch: 3}})

	// Equal-meaning spellings share one key.
	if a, b := CacheKey(NormalizeRequest(Request{Keywords: []string{"b", "a", "B"}, K: 2, SizeThreshold: 10}), pins),
		CacheKey(base, pins); a != b {
		t.Errorf("permuted keywords keyed differently: %q vs %q", a, b)
	}
	// Keyword boundaries are not ambiguous ("ab"+"c" vs "a"+"bc").
	if a, b := CacheKey(NormalizeRequest(Request{Keywords: []string{"ab", "c"}, K: 2, SizeThreshold: 10}), pins),
		CacheKey(NormalizeRequest(Request{Keywords: []string{"a", "bc"}, K: 2, SizeThreshold: 10}), pins); a == b {
		t.Errorf("keyword boundary ambiguity: %q", a)
	}
}

func testResults(n int) []Result {
	out := make([]Result, n)
	for i := range out {
		out[i] = Result{URL: fmt.Sprintf("http://x/%d", i), Score: float64(n - i)}
	}
	return out
}

// TestResultCacheLRU: capacity is enforced by least-recently-used
// eviction, Get refreshes recency, and an entry larger than a shard's
// whole budget is not stored.
func TestResultCacheLRU(t *testing.T) {
	// One shard's budget is maxBytes/16; size entries so ~2 fit per shard.
	c := NewResultCache(16 * 600)
	pins := []EpochPin{{Shard: 0, Epoch: 1}}
	res := testResults(1) // cost ≈ 64 + 160 + len(url) ≈ 236

	// Find three keys landing in the same shard so eviction is forced.
	shard0 := c.shardFor("probe")
	var keys []string
	for i := 0; len(keys) < 3 && i < 10000; i++ {
		k := fmt.Sprintf("key-%d", i)
		if c.shardFor(k) == shard0 {
			keys = append(keys, k)
		}
	}
	if len(keys) < 3 {
		t.Fatal("could not find colliding shard keys")
	}

	c.Put(keys[0], pins, res)
	c.Put(keys[1], pins, res)
	if _, ok := c.Get(keys[0]); !ok {
		t.Fatal("keys[0] missing before capacity")
	}
	// keys[0] is now most recent; inserting keys[2] must evict keys[1].
	c.Put(keys[2], pins, res)
	if _, ok := c.Get(keys[1]); ok {
		t.Error("LRU entry survived eviction")
	}
	if _, ok := c.Get(keys[0]); !ok {
		t.Error("recently used entry was evicted")
	}
	if _, ok := c.Get(keys[2]); !ok {
		t.Error("fresh entry missing")
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Error("eviction not counted")
	}
	if st.Bytes > st.Capacity {
		t.Errorf("resident %d bytes over capacity %d", st.Bytes, st.Capacity)
	}

	// An entry that alone exceeds the per-shard budget is refused.
	c.Put("huge", pins, testResults(100))
	if _, ok := c.Get("huge"); ok {
		t.Error("oversized entry was stored")
	}
}

// TestResultCacheSingleflight: N concurrent identical misses run the
// search once; the rest share the leader's result.
func TestResultCacheSingleflight(t *testing.T) {
	c := NewResultCache(1 << 20)
	pins := []EpochPin{{Shard: 0, Epoch: 1}}
	res := testResults(2)

	var calls atomic.Int32
	gate := make(chan struct{})
	started := make(chan struct{})
	fn := func(context.Context) ([]Result, error) {
		calls.Add(1)
		close(started)
		<-gate
		return res, nil
	}

	const waiters = 8
	var wg sync.WaitGroup
	outcomes := make([]CacheOutcome, waiters)
	errs := make([]error, waiters)
	got := make([][]Result, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], outcomes[i], errs[i] = c.Do(context.Background(), "hot", pins, fn)
		}(i)
	}
	<-started // the leader is inside fn; give followers time to queue up
	time.Sleep(10 * time.Millisecond)
	close(gate)
	wg.Wait()

	if n := calls.Load(); n != 1 {
		t.Fatalf("search ran %d times, want 1", n)
	}
	miss, shared := 0, 0
	for i := 0; i < waiters; i++ {
		if errs[i] != nil {
			t.Fatalf("waiter %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(got[i], res) {
			t.Fatalf("waiter %d got %+v", i, got[i])
		}
		switch outcomes[i] {
		case CacheMiss:
			miss++
		case CacheCollapsed, CacheHit:
			shared++
		}
	}
	if miss != 1 || shared != waiters-1 {
		t.Errorf("outcomes: %d miss, %d shared; want 1 and %d", miss, shared, waiters-1)
	}

	// And the result is now cached: a later Do is a plain hit.
	if _, outcome, err := c.Do(context.Background(), "hot", pins, fn); err != nil || outcome != CacheHit {
		t.Errorf("post-flight Do = %v outcome %v, want cached hit", err, outcome)
	}
}

// TestResultCacheLeaderCancellation: a leader failing with its own
// context error does not poison waiters — a follower with a live context
// retries (becoming the next leader) and succeeds.
func TestResultCacheLeaderCancellation(t *testing.T) {
	c := NewResultCache(1 << 20)
	pins := []EpochPin{{Shard: 0, Epoch: 1}}
	res := testResults(1)

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	// The first call is the leader's: it announces itself by closing inFn
	// (lossless however the goroutines interleave) and holds its flight
	// until its context is cancelled — no timer to outrun on a loaded
	// machine. Later calls are the follower's retry and succeed.
	inFn := make(chan struct{})
	var calls atomic.Int32
	fn := func(ctx context.Context) ([]Result, error) {
		if calls.Add(1) > 1 {
			return res, nil
		}
		close(inFn)
		<-ctx.Done()
		return nil, ctx.Err()
	}

	var wg sync.WaitGroup
	wg.Add(1)
	var leaderErr error
	go func() {
		defer wg.Done()
		_, _, leaderErr = c.Do(leaderCtx, "k", pins, fn)
	}()
	<-inFn
	// The follower starts while the leader is in flight, then the leader's
	// context is cancelled.
	done := make(chan struct{})
	var followerRes []Result
	var followerErr error
	go func() {
		defer close(done)
		followerRes, _, followerErr = c.Do(context.Background(), "k", pins, fn)
	}()
	time.Sleep(2 * time.Millisecond)
	cancelLeader()
	wg.Wait()
	<-done

	if !errors.Is(leaderErr, context.Canceled) {
		t.Errorf("leader err = %v, want context.Canceled", leaderErr)
	}
	if followerErr != nil {
		t.Fatalf("follower err = %v, want retry success", followerErr)
	}
	if !reflect.DeepEqual(followerRes, res) {
		t.Errorf("follower got %+v", followerRes)
	}
}

// TestResultCacheSweep: entries pinning superseded epochs are reclaimed;
// entries whose pins all match the current vector survive.
func TestResultCacheSweep(t *testing.T) {
	c := NewResultCache(1 << 20)
	res := testResults(1)
	c.Put("fresh", []EpochPin{{Shard: 0, Epoch: 2}, {Shard: 2, Epoch: 5}}, res)
	c.Put("stale", []EpochPin{{Shard: 1, Epoch: 3}}, res)
	c.Put("mixed", []EpochPin{{Shard: 0, Epoch: 2}, {Shard: 1, Epoch: 3}}, res)

	// Current epochs: shard 1 has advanced past 3.
	if n := c.Sweep([]uint64{2, 4, 5}); n != 2 {
		t.Errorf("swept %d entries, want 2", n)
	}
	if _, ok := c.Get("fresh"); !ok {
		t.Error("current-epoch entry swept")
	}
	if _, ok := c.Get("stale"); ok {
		t.Error("superseded entry survived sweep")
	}
	if _, ok := c.Get("mixed"); ok {
		t.Error("partially superseded entry survived sweep")
	}
	if st := c.Stats(); st.Swept != 2 || st.Entries != 1 {
		t.Errorf("stats after sweep: %+v", st)
	}
}

// TestPinEpochs: single-snapshot sets always pin shard 0; sharded sets
// pin exactly the shards where some queried keyword occurs, and a publish
// making a shard newly relevant changes the recomputed pin set (the
// property that keeps sparse keys sound).
func TestPinEpochs(t *testing.T) {
	_, se := fooddbSharded(t, 3)
	snaps := se.Pin()

	kws := normalizeKeywords(nil, []string{"burger"})
	pins := PinEpochs(nil, snaps, kws)
	if len(pins) == 0 {
		t.Fatal("no pins for an indexed keyword")
	}
	for _, p := range pins {
		if snaps[p.Shard].DF("burger") == 0 {
			t.Errorf("pinned shard %d has no postings", p.Shard)
		}
		if p.Epoch != snaps[p.Shard].Epoch() {
			t.Errorf("pin epoch %d != snapshot epoch %d", p.Epoch, snaps[p.Shard].Epoch())
		}
	}
	for si, snap := range snaps {
		if snap.DF("burger") > 0 {
			found := false
			for _, p := range pins {
				if p.Shard == si {
					found = true
				}
			}
			if !found {
				t.Errorf("shard %d holds the keyword but was not pinned", si)
			}
		}
	}

	// A keyword nowhere in the corpus pins nothing.
	if pins := PinEpochs(nil, snaps, []string{"xyzzy-absent"}); len(pins) != 0 {
		t.Errorf("absent keyword pinned %v", pins)
	}

	// Single-snapshot sets skip the DF probe: always [{0, epoch}].
	single := snaps[:1]
	if pins := PinEpochs(nil, single, []string{"xyzzy-absent"}); len(pins) != 1 || pins[0].Shard != 0 || pins[0].Epoch != single[0].Epoch() {
		t.Errorf("single-snapshot pins = %v", pins)
	}
}
