package search

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fragindex"
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

// keysInShard returns n distinct keys that c stores in one shard, so a
// test can drive that shard's LRU order. No key is longer than "key-0000".
func keysInShard(t *testing.T, c *ResultCache, n int) []string {
	t.Helper()
	shard := c.shardFor("probe")
	var keys []string
	for i := 0; len(keys) < n && i < 10000; i++ {
		if k := fmt.Sprintf("key-%d", i); c.shardFor(k) == shard {
			keys = append(keys, k)
		}
	}
	if len(keys) < n {
		t.Fatalf("found %d keys sharing a cache shard, want %d", len(keys), n)
	}
	return keys
}

// TestResultCacheLRU: capacity is enforced by least-recently-used
// eviction, Get refreshes recency, and an entry larger than a shard's
// whole budget is not stored.
func TestResultCacheLRU(t *testing.T) {
	// One shard's budget is maxBytes/16; size it so two entries fit per
	// shard and a third does not.
	pins := []EpochPin{{Shard: 0, Epoch: 1}}
	res := testResults(1)
	per := entryCost("key-0000", pins, res) // the longest key keysInShard returns
	c := NewResultCache(16 * (2*per + per/2))
	keys := keysInShard(t, c, 3) // one shard, so eviction is forced

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
	got := make([]*Answer, waiters)
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
		if !reflect.DeepEqual(got[i].Results(), res) {
			t.Fatalf("waiter %d got %+v", i, got[i].Results())
		}
		if got[i] != got[0] {
			t.Fatalf("waiter %d (outcome %v) got its own answer, want the shared one", i, outcomes[i])
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

	// And the result is now cached: a later Do is a plain hit on the same
	// answer the flight shared.
	if a, outcome, err := c.Do(context.Background(), "hot", pins, fn); err != nil || outcome != CacheHit || a != got[0] {
		t.Errorf("post-flight Do = %p, %v, outcome %v; want cached hit on %p", a, err, outcome, got[0])
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
	var followerAns *Answer
	var followerErr error
	go func() {
		defer close(done)
		followerAns, _, followerErr = c.Do(context.Background(), "k", pins, fn)
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
	if !reflect.DeepEqual(followerAns.Results(), res) {
		t.Errorf("follower got %+v", followerAns.Results())
	}
}

// TestResultCacheSweep: a put drops its shard's cold-end entries while they
// pin an epoch older than one the shard has seen, and stops at the first
// live entry. An entry pinning only an index shard that has not moved
// survives, and the entry being stored is never dropped, even when it is
// already stale. Drops count as swept, never as evictions.
func TestResultCacheSweep(t *testing.T) {
	c := NewResultCache(1 << 20)
	keys := keysInShard(t, c, 6)
	res := testResults(1)
	// LRU order, coldest first.
	c.Put(keys[0], []EpochPin{{Shard: 1, Epoch: 3}}, res)
	c.Put(keys[1], []EpochPin{{Shard: 0, Epoch: 2}, {Shard: 1, Epoch: 3}}, res)
	c.Put(keys[2], []EpochPin{{Shard: 0, Epoch: 2}}, res) // index shard 0 never moves
	c.Put(keys[3], []EpochPin{{Shard: 1, Epoch: 3}}, res)
	if st := c.Stats(); st.Swept != 0 || st.Entries != 4 {
		t.Fatalf("before index shard 1 moves: %+v", st)
	}

	// Index shard 1 moves to epoch 4: the next put drops keys[0] and keys[1]
	// and stops at the live keys[2], leaving keys[3] for a later put.
	c.Put(keys[4], []EpochPin{{Shard: 1, Epoch: 4}}, res)
	// Once keys[2] is used, keys[3] is the cold end, and the next put drops
	// it and stops at the live keys[4].
	if _, ok := c.Lookup(keys[2]); !ok {
		t.Fatal("entry pinning an unmoved index shard was dropped")
	}
	c.Put(keys[5], []EpochPin{{Shard: 0, Epoch: 2}}, res)

	for i, want := range []bool{false, false, true, false, true, true} {
		if _, ok := c.stored(keys[i]); ok != want {
			t.Errorf("keys[%d] stored = %v, want %v", i, ok, want)
		}
	}
	if st := c.Stats(); st.Swept != 3 || st.Evictions != 0 || st.Entries != 3 {
		t.Errorf("stats after the drops: %+v, want 3 swept, 0 evictions, 3 entries", st)
	}

	// A late answer, stale as it is stored, is stored all the same, even
	// when the put drops every colder entry before reaching it.
	c = NewResultCache(1 << 20)
	keys = keysInShard(t, c, 2)
	c.Put(keys[0], []EpochPin{{Shard: 0, Epoch: 3}}, res)
	c.Put(keys[0], []EpochPin{{Shard: 1, Epoch: 3}}, res) // the shard has still seen index shard 0 at 3
	c.Put(keys[1], []EpochPin{{Shard: 0, Epoch: 2}, {Shard: 1, Epoch: 4}}, res)
	if _, ok := c.stored(keys[1]); !ok {
		t.Error("the entry being stored was dropped as stale")
	}
	if st := c.Stats(); st.Swept != 1 || st.Entries != 1 {
		t.Errorf("stats after storing a stale answer: %+v, want 1 swept, 1 entry", st)
	}
}

// encodeURLs is the tests' stand-in for the HTTP layer's encoder.
func encodeURLs(res []Result) ([]byte, error) {
	var b bytes.Buffer
	for i := range res {
		b.WriteString(res[i].URL)
		b.WriteByte('\n')
	}
	return b.Bytes(), nil
}

// TestAnswerEncodedConcurrent (run with -race): N goroutines take the
// first encoding of one stored answer at once. All of them get the same
// bytes, the memo is charged to the entry exactly once, and an encode
// error memoizes nothing.
func TestAnswerEncodedConcurrent(t *testing.T) {
	c := NewResultCache(1 << 20)
	c.Put("k", []EpochPin{{Shard: 0, Epoch: 1}}, testResults(10))
	ans, ok := c.Lookup("k")
	if !ok {
		t.Fatal("stored answer missing")
	}
	before := c.Stats().Bytes

	boom := errors.New("boom")
	if _, err := ans.Encoded(func([]Result) ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("failing encoder: err %v, want boom", err)
	}
	if got := c.Stats().Bytes; got != before {
		t.Fatalf("failed encoding charged %d bytes", got-before)
	}

	const n = 16
	got := make([][]byte, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			b, err := ans.Encoded(encodeURLs)
			if err != nil {
				t.Errorf("goroutine %d: %v", i, err)
			}
			got[i] = b
		}(i)
	}
	close(start)
	wg.Wait()
	want, _ := encodeURLs(ans.Results())
	for i := range got {
		if !bytes.Equal(got[i], want) {
			t.Fatalf("goroutine %d got %q, want %q", i, got[i], want)
		}
		if &got[i][0] != &got[0][0] {
			t.Fatalf("goroutine %d got its own copy of the encoding, want the memoized one", i)
		}
	}
	if charged := c.Stats().Bytes - before; charged != memoCost(got[0]) {
		t.Errorf("memo charged %d bytes, want %d once", charged, memoCost(got[0]))
	}
	// A later caller's encoder is not consulted.
	if b, err := ans.Encoded(func([]Result) ([]byte, error) { return nil, boom }); err != nil || &b[0] != &got[0][0] {
		t.Errorf("memoized answer re-encoded: %q, %v", b, err)
	}
}

// TestMemoChargeFollowsEntry: memoized bytes count against the byte budget
// only while the entry that holds the answer is stored. An answer evicted,
// dropped as stale or replaced between its lookup and its first encoding
// memoizes without panicking and charges nothing, a charge that overfills
// the shard evicts from the cold end, and dropping a memoized entry
// releases its memo's bytes with it.
func TestMemoChargeFollowsEntry(t *testing.T) {
	pins := []EpochPin{{Shard: 0, Epoch: 1}}
	next := []EpochPin{{Shard: 0, Epoch: 2}}
	last := []EpochPin{{Shard: 0, Epoch: 3}}
	res := testResults(4)
	c := NewResultCache(1 << 20)
	keys := keysInShard(t, c, 4)

	// Dropped as stale between lookup and memoization: the put of a newer
	// epoch into the same shard drops it.
	c.Put(keys[0], pins, res)
	stale, _ := c.Lookup(keys[0])
	c.Put(keys[1], next, res)
	if b, err := stale.Encoded(encodeURLs); err != nil || len(b) == 0 {
		t.Fatalf("encoding a stale answer: %q, %v", b, err)
	}
	if st := c.Stats(); st.Swept != 1 || st.Entries != 1 || st.Bytes != entryCost(keys[1], next, res) {
		t.Fatalf("stale answer's memo charged: %d bytes in %d entries (%d swept), want only keys[1]'s %d",
			st.Bytes, st.Entries, st.Swept, entryCost(keys[1], next, res))
	}

	// Replaced under the same key: the old answer's memo must not be
	// charged to the new entry.
	c.Put(keys[2], next, res)
	old, _ := c.Lookup(keys[2])
	c.Put(keys[2], next, res)
	unmemoized := c.Stats().Bytes
	if _, err := old.Encoded(encodeURLs); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Bytes; got != unmemoized {
		t.Fatalf("replaced answer's memo charged %d bytes to its successor", got-unmemoized)
	}
	cur, _ := c.Lookup(keys[2])
	b, err := cur.Encoded(encodeURLs)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Bytes; got != unmemoized+memoCost(b) {
		t.Fatalf("stored answer's memo charged %d bytes, want %d", got-unmemoized, memoCost(b))
	}
	// A newer epoch drops both epoch-2 entries, memo and all.
	c.Put(keys[3], last, res)
	if st := c.Stats(); st.Bytes != entryCost(keys[3], last, res) || st.Entries != 1 {
		t.Fatalf("after the stale drops: %d bytes in %d entries, want only keys[3]'s %d",
			st.Bytes, st.Entries, entryCost(keys[3], last, res))
	}

	// A charge that overfills the shard evicts its coldest entries; one
	// that alone outgrows the shard evicts the entry itself.
	per := entryCost("key-0000", pins, res)
	small := NewResultCache(16 * (2*per + per/2))
	keys = keysInShard(t, small, 2)
	small.Put(keys[0], pins, res)
	small.Put(keys[1], pins, res)
	hot, _ := small.Lookup(keys[1])
	if _, err := hot.Encoded(func([]Result) ([]byte, error) { return make([]byte, per), nil }); err != nil {
		t.Fatal(err)
	}
	if _, ok := small.Lookup(keys[0]); ok {
		t.Error("cold entry survived a charge that overfilled the shard")
	}
	if _, ok := small.Lookup(keys[1]); !ok {
		t.Error("charged entry was evicted though it still fits")
	}
	small.Put(keys[0], pins, res)
	cold, _ := small.Lookup(keys[0])
	if _, err := cold.Encoded(func([]Result) ([]byte, error) { return make([]byte, 4*per), nil }); err != nil {
		t.Fatal(err)
	}
	if _, ok := small.Lookup(keys[0]); ok {
		t.Error("entry whose memo alone exceeds the shard budget stayed stored")
	}
	if st := small.Stats(); st.Bytes > st.Capacity || st.Evictions == 0 {
		t.Errorf("after over-budget charges: %+v", st)
	}
	// Dropping the memoized keys[1] as stale releases its charge.
	small.Put(keys[0], next, res)
	if st := small.Stats(); st.Bytes != entryCost(keys[0], next, res) {
		t.Errorf("after the stale drop: %d bytes, want only keys[0]'s %d", st.Bytes, entryCost(keys[0], next, res))
	}
}

// TestEntryCostTracksHeap: what the cache charges for an answer (entryCost
// plus the memoized encoding) is what the answer keeps alive. N answers of
// the benchmark's request shape (K=10, s=200 on small/Q2) are stored and
// encoded; the heap growth they cause must be within 30 % of Stats().Bytes.
// An undercharge is not cosmetic: at 3.1 KB charged for 8.4 KB retained
// (ten per-result equality-value maps) a "32 MiB" cache pinned ≈ 85 MiB.
func TestEntryCostTracksHeap(t *testing.T) {
	idx, app := smallQ2Index(t)
	snap := idx.Freeze()
	e := New(snap, app)
	kws := keywordsByDF(snap)
	const n = 400
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = NormalizeRequest(Request{Keywords: []string{kws[i]}, K: 10, SizeThreshold: 200})
	}
	encode := func(res []Result) ([]byte, error) {
		type page struct {
			URL   string  `json:"url"`
			Query string  `json:"query_string"`
			Score float64 `json:"score"`
			Size  int64   `json:"size"`
		}
		pages := make([]page, len(res))
		for i, r := range res {
			pages[i] = page{r.URL, r.QueryString, r.Score, r.Size}
		}
		return json.Marshal(pages)
	}
	ctx := context.Background()
	fill := func(c *ResultCache) {
		var pins []EpochPin
		for _, req := range reqs {
			pins = PinEpochs(pins[:0], []*fragindex.Snapshot{snap}, req.Keywords)
			ans, _, err := c.Do(ctx, CacheKey(req, pins), append([]EpochPin(nil), pins...), func(ctx context.Context) ([]Result, error) {
				return e.SearchSnapshot(ctx, snap, req)
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ans.Encoded(encode); err != nil {
				t.Fatal(err)
			}
		}
	}
	heap := func() uint64 {
		// Twice: the first cycle moves the engine's pooled scratch to the
		// pools' victim caches, the second frees it.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	// The first pass pays whatever the engine allocates once; its cache
	// stays reachable so the measured pass is charged only its own growth.
	warm := NewResultCache(64 << 20)
	fill(warm)
	before := heap()
	c := NewResultCache(64 << 20)
	fill(c)
	after := heap()
	st := c.Stats()
	if st.Entries != n {
		t.Fatalf("%d entries stored, want %d", st.Entries, n)
	}
	retained := float64(after) - float64(before)
	ratio := retained / float64(st.Bytes)
	t.Logf("%d answers: charged %d B (%.0f B each), heap grew %.0f B (%.0f B each), heap/charge %.2f",
		n, st.Bytes, float64(st.Bytes)/n, retained, retained/n, ratio)
	if ratio < 0.7 || ratio > 1.3 {
		t.Errorf("cache charges %d bytes for answers that retain %.0f: ratio %.2f outside [0.7, 1.3]", st.Bytes, retained, ratio)
	}
	// The engine's scratch must not become garbage between the two
	// readings, or its release is booked against the cache.
	runtime.KeepAlive(e)
	runtime.KeepAlive(warm)
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
