package search

// Epoch-keyed result caching (the Mitos-style results cache in front of
// the query evaluator). Heavy traffic is skewed: the same hot queries
// arrive over and over while the snapshot epoch rarely moves, yet every
// one re-runs the full seeding + expansion loop. ResultCache memoizes
// finished result lists keyed by (canonical Request, pinned epoch vector):
//
//   - The request half of the key is NormalizeRequest's canonical form, so
//     "Coffee burger" and "burger coffee" share one entry.
//   - The epoch half is the per-shard epoch vector of the shards the query
//     actually touches, captured from the pinned snapshot set at lookup
//     time. Epoch-swap publishes make invalidation free: a publish bumps
//     the shard's epoch, every later lookup computes a key containing the
//     new epoch, and the stale entry simply can never be hit again. A
//     publish that makes a previously irrelevant shard relevant (a delta
//     inserting a queried keyword there) changes the *active set* the
//     lookup computes, which changes the key the same way — entries are
//     never explicitly invalidated, and no lookup can observe a
//     pre-publish result under a post-publish epoch.
//   - Stale entries are reclaimed by capacity eviction (sharded bounded
//     LRU) plus an explicit post-publish Sweep that drops every entry
//     pinning a superseded epoch.
//
// Singleflight rides on top: N concurrent identical misses run the
// expansion loop once and share the one result (Do), so a thundering herd
// on a hot query costs one search, not N.
//
// A cached answer is shared between callers and MUST be treated as
// immutable — exactly like the snapshots it was computed from. Beside its
// results an Answer carries one memo slot for a caller-supplied encoding of
// them (the HTTP layer's JSON), so a hit costs its caller a probe and a
// Write instead of a re-encode; the memoized bytes are charged to the
// entry like the results are (see Answer.Encoded).

import (
	"context"
	"hash/maphash"
	"strconv"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/fragindex"
)

// NormalizeRequest returns req in its canonical form: keywords
// lower-cased, field-split, deduplicated, and sorted (the engine's own
// normalization — see normalizeKeywords), and any negative CandidateLimit
// folded to 0 (the engine treats every non-positive limit as "read full
// posting lists", so the two spellings are one request). The engine
// normalizes keywords identically on every search, so a normalized
// request returns byte-identical results to its raw form — which is what
// lets the result cache key equal-meaning requests to one entry. Callers
// that apply a handle-level default CandidateLimit must fold it in
// *before* normalizing, since normalization erases the "explicitly
// unlimited" negative spelling a default would otherwise overwrite.
func NormalizeRequest(req Request) Request {
	req.Keywords = normalizeKeywords(make([]string, 0, len(req.Keywords)), req.Keywords)
	if req.CandidateLimit < 0 {
		req.CandidateLimit = 0
	}
	// MinEpoch is a routing directive, not query semantics: by the time a
	// request reaches an engine the placement decision has been made, and
	// the cache key's epoch pins already guarantee a hit is at least as
	// fresh as the view that admitted the request.
	req.MinEpoch = 0
	return req
}

// EpochPin records that a query's pinned view included one shard at one
// epoch. The pin vector of a request is the cache key's epoch half and
// what Sweep checks entries against.
type EpochPin struct {
	Shard int
	Epoch uint64
}

// CacheKey builds the cache key for a normalized request and its pinned
// epoch vector. req must already be in NormalizeRequest's canonical form;
// pins must be in ascending shard order (PinEpochs produces them so).
// Distinct requests, and the same request over different pinned epochs,
// map to distinct keys.
func CacheKey(req Request, pins []EpochPin) string {
	// Typical keys fit the stack scratch, so the key string is the one
	// allocation; a longer key spills to the heap like any append.
	var scratch [128]byte
	b := scratch[:0]
	for _, w := range req.Keywords {
		b = append(b, w...)
		b = append(b, 0)
	}
	b = append(b, 1)
	b = strconv.AppendInt(b, int64(req.K), 10)
	b = append(b, 1)
	b = strconv.AppendInt(b, int64(req.SizeThreshold), 10)
	b = append(b, 1)
	b = strconv.AppendInt(b, int64(max(req.CandidateLimit, 0)), 10)
	b = append(b, 1)
	if req.AllowOverlap {
		b = append(b, 'O')
	}
	if req.RequireAll {
		b = append(b, 'A')
	}
	b = append(b, 1)
	for _, p := range pins {
		b = strconv.AppendInt(b, int64(p.Shard), 10)
		b = append(b, ':')
		b = strconv.AppendUint(b, p.Epoch, 10)
		b = append(b, ',')
	}
	return string(b)
}

// CacheOutcome classifies how one Do call was answered.
type CacheOutcome int

const (
	// CacheMiss: this call ran the search itself.
	CacheMiss CacheOutcome = iota
	// CacheHit: answered from a stored entry, no search ran.
	CacheHit
	// CacheCollapsed: answered by sharing a concurrent identical call's
	// in-flight search (singleflight) — a hit at the HTTP surface, counted
	// separately so the collapse rate is observable.
	CacheCollapsed
)

// CacheStats is the counter snapshot a ResultCache reports (surfaced
// through the unified EngineStats and /v1/admin/stats).
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Collapsed uint64 `json:"collapsed"`
	Evictions uint64 `json:"evictions"`
	Swept     uint64 `json:"swept"`
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
	Capacity  int64  `json:"capacity_bytes"`
}

// Answer is one finished search: the result list plus one memo slot for an
// encoding of it. The hit, the miss that computed it and every
// singleflight-collapsed waiter receive the same *Answer. Everything
// reachable from it is shared and read-only.
type Answer struct {
	res  []Result
	memo atomic.Pointer[[]byte]
	// cache and key locate the entry the memo is charged to; cache is nil
	// for an answer that was never stored (NewAnswer).
	cache *ResultCache
	key   string
}

// NewAnswer wraps a result list no cache holds: the memo slot works the
// same and is charged to nobody. It is what a handle without a result
// cache hands callers that speak in answers.
func NewAnswer(res []Result) *Answer { return &Answer{res: res} }

// Results returns the answer's result list. Shared: must not be modified.
func (a *Answer) Results() []Result { return a.res }

// Encoded returns the memoized encoding of the answer's results, calling
// encode to produce it when the slot is empty. encode must be a pure
// function of the results and the same function for every caller of one
// cache: whichever caller fills the slot first decides the bytes all later
// callers get. Callers racing on an empty slot may each run encode; one
// result wins and is returned to all of them. The returned bytes are
// shared and must not be modified. The winning bytes are charged to the
// answer's cache entry if it is still stored; an answer already evicted
// keeps its memo only as long as its holders keep the answer. An encode
// error is returned and nothing is memoized.
func (a *Answer) Encoded(encode func([]Result) ([]byte, error)) ([]byte, error) {
	if b := a.memo.Load(); b != nil {
		return *b, nil
	}
	b, err := encode(a.res)
	if err != nil {
		return nil, err
	}
	if !a.memo.CompareAndSwap(nil, &b) {
		return *a.memo.Load(), nil
	}
	if a.cache != nil {
		a.cache.charge(a, memoCost(b))
	}
	return b, nil
}

// cacheEntry is one stored answer on its shard's LRU list.
type cacheEntry struct {
	key        string
	ans        *Answer
	pins       []EpochPin
	cost       int64
	prev, next *cacheEntry // LRU links; head = most recently used
}

// cacheShard is one lock domain of the cache: a map plus an intrusive
// LRU list, bounded by its slice of the byte budget.
type cacheShard struct {
	mu         sync.Mutex
	max        int64
	bytes      int64
	entries    map[string]*cacheEntry
	head, tail *cacheEntry
}

// numCacheShards spreads hot-key lock traffic; 16 keeps contention
// negligible at any realistic core count while the per-shard byte budget
// stays coarse enough to hold whole result lists.
const numCacheShards = 16

// ResultCache is a sharded, bounded, epoch-keyed LRU result cache with a
// singleflight layer (Do). Safe for concurrent use.
type ResultCache struct {
	shards   [numCacheShards]cacheShard
	seed     maphash.Seed
	capacity int64

	hits      atomic.Uint64
	misses    atomic.Uint64
	collapsed atomic.Uint64
	evictions atomic.Uint64
	swept     atomic.Uint64

	flightMu sync.Mutex
	flight   map[string]*flightCall
}

// flightCall is one in-flight search other identical requests wait on.
type flightCall struct {
	done chan struct{}
	ans  *Answer
	err  error
}

// NewResultCache creates a cache bounded to roughly maxBytes of stored
// results (estimated — see entryCost). maxBytes <= 0 returns nil, the
// "no cache" sentinel every method tolerates.
func NewResultCache(maxBytes int64) *ResultCache {
	if maxBytes <= 0 {
		return nil
	}
	c := &ResultCache{
		seed:     maphash.MakeSeed(),
		capacity: maxBytes,
		flight:   make(map[string]*flightCall),
	}
	per := maxBytes / numCacheShards
	if per < 1 {
		per = 1
	}
	for i := range c.shards {
		c.shards[i].max = per
		c.shards[i].entries = make(map[string]*cacheEntry)
	}
	return c
}

func (c *ResultCache) shardFor(key string) *cacheShard {
	return &c.shards[maphash.String(c.seed, key)%numCacheShards]
}

// Lookup returns the answer stored under key, if any, marking it most
// recently used and counting the hit or miss.
func (c *ResultCache) Lookup(key string) (*Answer, bool) {
	a, ok := c.stored(key)
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return a, ok
}

// stored is Lookup without the counters.
func (c *ResultCache) stored(key string) (*Answer, bool) {
	sh := c.shardFor(key)
	sh.mu.Lock()
	e, ok := sh.entries[key]
	if ok {
		sh.moveToFront(e)
	}
	sh.mu.Unlock()
	if !ok {
		return nil, false
	}
	return e.ans, true
}

// Get is Lookup for callers that want only the result list. The returned
// slice is shared: callers must not mutate it.
func (c *ResultCache) Get(key string) ([]Result, bool) {
	a, ok := c.Lookup(key)
	if !ok {
		return nil, false
	}
	return a.res, true
}

// Put stores res under key, evicting least-recently-used entries to stay
// within the shard's byte budget. An entry larger than the whole budget
// is simply not stored.
func (c *ResultCache) Put(key string, pins []EpochPin, res []Result) {
	c.put(key, pins, res)
}

// put wraps res in a fresh answer (no memo yet), stores it under key and
// returns it — also when it is too large to store.
func (c *ResultCache) put(key string, pins []EpochPin, res []Result) *Answer {
	a := &Answer{res: res, cache: c, key: key}
	cost := entryCost(key, pins, res)
	sh := c.shardFor(key)
	if cost > sh.max {
		return a
	}
	sh.mu.Lock()
	if old, ok := sh.entries[key]; ok {
		sh.remove(old)
	}
	e := &cacheEntry{key: key, ans: a, pins: pins, cost: cost}
	sh.entries[key] = e
	sh.pushFront(e)
	sh.bytes += cost
	evicted := sh.evictOver(e)
	sh.mu.Unlock()
	if evicted > 0 {
		c.evictions.Add(uint64(evicted))
	}
	return a
}

// charge adds n bytes — a's freshly memoized encoding — to the cost of the
// entry holding a, and evicts to stay within the shard's budget: the
// entry itself when it alone no longer fits, else from the cold end. If a
// is no longer stored (evicted, swept or replaced since the lookup that
// returned it) nothing is charged: nothing the cache holds grew.
func (c *ResultCache) charge(a *Answer, n int64) {
	sh := c.shardFor(a.key)
	sh.mu.Lock()
	evicted := 0
	if e, ok := sh.entries[a.key]; ok && e.ans == a {
		e.cost += n
		sh.bytes += n
		if e.cost > sh.max {
			sh.remove(e)
			delete(sh.entries, e.key)
			evicted = 1
		} else {
			evicted = sh.evictOver(e)
		}
	}
	sh.mu.Unlock()
	if evicted > 0 {
		c.evictions.Add(uint64(evicted))
	}
}

// Do answers one request through the cache: a stored entry is a hit; a
// miss runs fn exactly once across all concurrent identical misses
// (singleflight) and stores a successful result under key. fn runs with
// the caller's ctx; a waiter whose own ctx expires stops waiting with
// ctx.Err(). A leader failure caused by the leader's *own* context does
// not poison waiters — they retry (and typically become the next leader)
// because their contexts may still be live. Every caller answered from one
// search — the leader, its waiters and later hits — gets the same *Answer.
func (c *ResultCache) Do(ctx context.Context, key string, pins []EpochPin, fn func(context.Context) ([]Result, error)) (*Answer, CacheOutcome, error) {
	if a, ok := c.Lookup(key); ok {
		return a, CacheHit, nil
	}
	return c.Fill(ctx, key, pins, fn)
}

// Fill is Do after the caller's own Lookup of key has missed: it goes
// straight to the singleflight, so the miss is counted once and a caller
// that probes first builds fn only when it is needed.
func (c *ResultCache) Fill(ctx context.Context, key string, pins []EpochPin, fn func(context.Context) ([]Result, error)) (*Answer, CacheOutcome, error) {
	for {
		c.flightMu.Lock()
		fc, waiting := c.flight[key]
		if !waiting {
			// A leader stores its answer before it retires its flight, so
			// with no flight registered either nobody is searching or the
			// search that overlapped the caller's Lookup has just been
			// stored: share it rather than search twice.
			if a, ok := c.stored(key); ok {
				c.flightMu.Unlock()
				c.collapsed.Add(1)
				return a, CacheCollapsed, nil
			}
			fc = &flightCall{done: make(chan struct{})}
			c.flight[key] = fc
			c.flightMu.Unlock()

			res, err := fn(ctx)
			fc.err = err
			if err == nil {
				fc.ans = c.put(key, pins, res)
			}
			c.flightMu.Lock()
			delete(c.flight, key)
			c.flightMu.Unlock()
			close(fc.done)
			return fc.ans, CacheMiss, err
		}
		c.flightMu.Unlock()
		select {
		case <-fc.done:
		case <-ctx.Done():
			return nil, CacheMiss, ctx.Err()
		}
		if fc.err == nil {
			c.collapsed.Add(1)
			return fc.ans, CacheCollapsed, nil
		}
		if fc.err != context.Canceled && fc.err != context.DeadlineExceeded {
			// A genuine engine failure is the same for every caller of
			// this key (validation, index invariant): share it.
			return nil, CacheMiss, fc.err
		}
		// The leader's own deadline or client fired, not ours: retry under
		// our (still live) context.
		if ctx.Err() != nil {
			return nil, CacheMiss, ctx.Err()
		}
	}
}

// Sweep removes every entry pinning a superseded epoch: current[i] is
// shard i's serving epoch, and an entry survives only if each of its pins
// still matches. Run after a publish — such entries' keys can never be
// produced by a lookup again, so this is pure capacity hygiene, not a
// correctness requirement. Returns how many entries were dropped.
func (c *ResultCache) Sweep(current []uint64) int {
	if c == nil {
		return 0
	}
	total := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for _, e := range sh.entries {
			for _, p := range e.pins {
				if p.Shard < len(current) && p.Epoch != current[p.Shard] {
					sh.remove(e)
					delete(sh.entries, e.key)
					total++
					break
				}
			}
		}
		sh.mu.Unlock()
	}
	if total > 0 {
		c.swept.Add(uint64(total))
	}
	return total
}

// Stats snapshots the cache's counters and occupancy.
func (c *ResultCache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	st := CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Collapsed: c.collapsed.Load(),
		Evictions: c.evictions.Load(),
		Swept:     c.swept.Load(),
		Capacity:  c.capacity,
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		st.Entries += len(sh.entries)
		st.Bytes += sh.bytes
		sh.mu.Unlock()
	}
	return st
}

// moveToFront, pushFront, remove: the intrusive LRU list. Callers hold
// sh.mu.
func (sh *cacheShard) moveToFront(e *cacheEntry) {
	if sh.head == e {
		return
	}
	sh.unlink(e)
	sh.pushFront(e)
}

func (sh *cacheShard) pushFront(e *cacheEntry) {
	e.prev = nil
	e.next = sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

func (sh *cacheShard) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// remove unlinks e and releases its cost (the map delete is the
// caller's, which knows the key).
func (sh *cacheShard) remove(e *cacheEntry) {
	sh.unlink(e)
	sh.bytes -= e.cost
}

// evictOver drops entries from the cold end, sparing keep, until the shard
// is back within its budget, and returns how many it dropped.
func (sh *cacheShard) evictOver(keep *cacheEntry) int {
	evicted := 0
	for sh.bytes > sh.max && sh.tail != nil && sh.tail != keep {
		victim := sh.tail
		sh.remove(victim)
		delete(sh.entries, victim.key)
		evicted++
	}
	return evicted
}

// entryCost is what one stored answer keeps alive on the heap and nothing
// else references: the entry, answer and map-slot overhead, the key, the
// pin vector, the result array and, per result, its URL, its query string
// and its fragment list. A result's equality values, equality key and range
// values are not charged — they belong to the index, which holds them
// whether or not a result points at them. TestEntryCostTracksHeap pins the
// sum to within 30 % of the measured heap.
func entryCost(key string, pins []EpochPin, res []Result) int64 {
	cost := entryOverhead + int64(len(key)) +
		int64(cap(pins))*int64(unsafe.Sizeof(EpochPin{})) +
		int64(cap(res))*int64(unsafe.Sizeof(Result{}))
	for i := range res {
		r := &res[i]
		cost += int64(len(r.URL) + len(r.QueryString))
		cost += int64(cap(r.Fragments)) * int64(unsafe.Sizeof(fragindex.FragRef(0)))
	}
	return cost
}

// entryOverhead is the fixed part of entryCost: the cacheEntry and Answer
// structs plus one slot of the shard's map (key header, value pointer and
// the table's slack at its load factor).
const entryOverhead = int64(unsafe.Sizeof(cacheEntry{})+unsafe.Sizeof(Answer{})) + 64

// memoCost is what a memoized encoding adds to its entry: the bytes and
// the heap-allocated slice header the memo slot points at.
func memoCost(b []byte) int64 { return int64(cap(b)) + int64(unsafe.Sizeof(b)) }

// PinEpochs computes the epoch half of a request's cache key from its
// pinned snapshot set: the pin vector holds, in ascending shard order,
// every shard where at least one queried keyword occurs (DF > 0) — the
// shards whose content the result can depend on. keywords must be the
// normalized set the search will run with. Recomputing the active set at
// every lookup is what makes sparse pinning sound: a publish that makes
// a previously irrelevant shard relevant changes the set this computes,
// hence the key. With a single snapshot the vector is always
// [{0, epoch}] — the DF probe buys nothing when there is nothing to
// skip. dst is reused (append semantics) so steady-state lookups don't
// allocate.
func PinEpochs(dst []EpochPin, snaps []*fragindex.Snapshot, keywords []string) []EpochPin {
	dst = dst[:0]
	if len(snaps) == 1 {
		return append(dst, EpochPin{Shard: 0, Epoch: snaps[0].Epoch()})
	}
	for si, snap := range snaps {
		for _, w := range keywords {
			if snap.DF(w) > 0 {
				dst = append(dst, EpochPin{Shard: si, Epoch: snap.Epoch()})
				break
			}
		}
	}
	return dst
}
