// Package search implements Dash's top-k db-page search (paper §VI,
// Algorithm 1). Given queried keywords W, a result count k, and a db-page
// size threshold s, it looks up relevant fragments in the inverted fragment
// index, assembles them into db-pages along fragment-graph edges, and
// returns the k most relevant pages as URLs that would regenerate them.
//
// Relevance follows the paper's modified TF/IDF: since db-pages are never
// materialized, IDF of keyword w is approximated as 1/DF(w) over fragments,
// and a page's TF for w is its occurrence count divided by its total
// keyword count. Merging the queue head with a neighbour yields a mediant
// of fractions, so a page's score stays bounded by the densest fragment it
// absorbs — but absorbing a denser neighbour can raise it, so Algorithm
// 1's early termination is greedy: the first k pages emitted are not
// always the k best the full enumeration would produce. The emission order
// depends on content alone, so a sharded engine, which runs the same one
// queue over its pinned shard set, makes the same greedy choice.
//
// # Performance
//
// Per-posting work is an array index, per-seed work is one 24-byte queue
// entry written twice, and only the seeds that can surface are ever ordered;
// the scoring core allocates nothing in steady state. Each query borrows a
// searchScratch holding every transient structure Algorithm 1 needs:
//
//   - Dense ref-indexed tables. Candidate fragments get dense ordinals in
//     discovery order; ordOf maps a global ref (a shard's base plus its
//     FragRef) to its ordinal through a flat []int32 sized from the pinned
//     set's Σ Snapshot.NumRefs (used marks accepted pages' fragments the
//     same way), so seeding a posting and pricing an expansion neighbour
//     are bounds-checked loads, not hash probes. The
//     tables are un-set by walking the refs the query touched —
//     O(candidates), never O(refs) — so a scratch moves between snapshots
//     of any size without a sweep. Per-keyword occurrence counts live in a
//     flat seed arena (numCandidates × numKeywords int64s) that is kept
//     zero past its length, so a new candidate's vector is a re-slice.
//   - A lazily bucketed queue. Algorithm 1 only ever needs the queue's
//     head, and on a hot keyword a few percent of the seeds are visited
//     before K pages are out. So the seeds are not heaped: the pass that
//     scores them records the smallest and largest score bit
//     pattern, and one counting sort places them into at most 256 buckets
//     that split that range evenly, best bucket first (scores are
//     non-negative and finite, and such floats order like their bits). The
//     by-value heap of {score, size, ord} entries holds only the buckets
//     pulled so far. Before every visit of the head, refill pulls the next
//     non-empty bucket — one sift-up per entry — unless the head's score
//     lies strictly above that bucket's range, and so strictly above every
//     seed not yet heaped: candLess ranks a strictly higher score first
//     whatever the tie-break fields say, so such a head is the minimum over
//     all seeds and the loop visits entries in exactly the order a heap
//     over all of them would. Strictly, because on an equal score the
//     tie-break decides; before every visit, because expansion rewrites
//     the head in place (one sift-down, no pop + push) and can move its
//     score either way. The loop ends at K results or when heap and buckets
//     are both empty.
//   - Lazy group paths. A candidate's path (members, weights, group key,
//     interval) and its mutable occurrence vector are materialised on its
//     first visit or first exact (score, size) tie inside the heap — about
//     as many as were pulled, a few percent of the seeds a hot keyword
//     produces. Seeds take their size from Snapshot.TermsOf; every ref is
//     validated once (AliveRef) before that, which is what makes the
//     unchecked accessors safe.
//   - Scratch retention. Released scratches go to a small per-Engine free
//     list (GOMAXPROCS entries) that, unlike the sync.Pool behind it,
//     survives GC cycles, so a steady stream of misses re-uses its arenas
//     instead of re-making them. A released scratch holds no pointer into
//     the snapshots it served. A posting list that an update left with
//     tombstones is filtered into scratch storage too
//     (Snapshot.PostingsIDF), not into a fresh slice per keyword.
//   - Page identity is a packed uint64 of the interval's endpoint refs
//     (FragRefs are int32), not an fmt.Sprintf string.
//
// Only per-result work (URL formulation, the returned slice) allocates, and
// the returned slice's capacity never exceeds K.
//
// # Cancellation
//
// Every search takes a context.Context first, like every other method on
// the serving path. A context that is already cancelled when Search is
// called returns ctx.Err() before the snapshot is even resolved; a
// cancellation or deadline that arrives mid-search is observed
// cooperatively — the assembly loop polls ctx.Err() once every
// ctxCheckInterval heap pops, so a runaway query on a hot keyword stops
// within a bounded amount of work after the deadline instead of running to
// completion. The poll allocates nothing, so the scoring core stays
// alloc-free, and the interval keeps its cost below measurement noise on
// the hottest queries (see BenchmarkSearchContextOverhead).
//
// # Snapshot pinning
//
// An Engine reads the index through a Source, which resolves the current
// fragindex.Snapshot. Every Search pins exactly one snapshot up front —
// for a LiveIndex source that is a single atomic load — and runs the whole
// algorithm against it, so scoring, expansion, and dedup can never observe
// a torn index even while a writer publishes new versions concurrently.
// ParallelSearch pins one snapshot for the entire batch, so a batch is
// internally consistent too. Engines are safe for concurrent use by any
// number of goroutines: the snapshot read path is lock-free and scratch
// state is per-search: borrowed from the engine, returned when it ends.
package search

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/fragindex"
	"repro/internal/fragment"
	"repro/internal/relation"
	"repro/internal/webapp"
)

// Errors returned by Search.
var (
	ErrNoKeywords = errors.New("search: no keywords given")
	ErrBadK       = errors.New("search: k must be positive")
)

// Source resolves the index version a request should run against. Three
// implementations exist: *fragindex.Index (a live view of a mutable index
// under the exclusive-mutation contract), *fragindex.LiveIndex (the
// current published version, one atomic load), and *fragindex.Snapshot
// itself (a permanently pinned version).
type Source interface {
	Snapshot() *fragindex.Snapshot
}

// Engine answers top-k searches over one application's fragment index.
// It is safe for concurrent use (see the package Snapshot pinning notes).
type Engine struct {
	src Source
	core
}

// core is what Engine and ShardedEngine share: Algorithm 1 over a pinned
// snapshot set, the batch path, the application results are formulated
// through, and the retained scratches.
type core struct {
	app     *webapp.Application          // nil: results carry no URLs
	pinSet  func() []*fragindex.Snapshot // the set a batch runs against
	free    chan *searchScratch          // retained scratches; survives GC cycles
	scratch sync.Pool                    // *searchScratch overflow past the free list
}

// New creates an engine over an index source — a *fragindex.Index,
// *fragindex.LiveIndex, or pinned *fragindex.Snapshot. app may be nil when
// URL formulation is not needed (benchmarks measure pure search time that
// way).
func New(src Source, app *webapp.Application) *Engine {
	e := &Engine{src: src}
	e.init(app, func() []*fragindex.Snapshot { return []*fragindex.Snapshot{src.Snapshot()} })
	return e
}

func (e *core) init(app *webapp.Application, pinSet func() []*fragindex.Snapshot) {
	// One retained scratch per processor: CPU-bound searches cannot run
	// more than that at once, so a steady load never reaches the pool.
	e.app, e.pinSet, e.free = app, pinSet, make(chan *searchScratch, runtime.GOMAXPROCS(0))
	e.scratch.New = func() any { return &searchScratch{seen: make(map[uint64]struct{})} }
}

// getScratch borrows a scratch and pins snaps on it.
func (e *core) getScratch(snaps []*fragindex.Snapshot) *searchScratch {
	var s *searchScratch
	select {
	case s = <-e.free:
	default:
		s = e.scratch.Get().(*searchScratch)
	}
	s.pin(snaps)
	return s
}

// putScratch resets a scratch and retains it.
func (e *core) putScratch(s *searchScratch) {
	s.reset()
	select {
	case e.free <- s:
	default:
		e.scratch.Put(s)
	}
}

// Source returns the engine's index source.
func (e *Engine) Source() Source { return e.src }

// Snapshot resolves the index version the next Search would pin.
func (e *Engine) Snapshot() *fragindex.Snapshot { return e.src.Snapshot() }

// Index returns the engine's mutable fragment index when the engine was
// constructed directly over one, and nil for snapshot or live sources.
func (e *Engine) Index() *fragindex.Index {
	idx, _ := e.src.(*fragindex.Index)
	return idx
}

// App returns the engine's application (may be nil).
func (e *core) App() *webapp.Application { return e.app }

// Request is one top-k search invocation.
type Request struct {
	Keywords []string
	K        int
	// SizeThreshold is the paper's s: pages smaller than s keep expanding
	// while fragments are available; pages at or above s stop growing.
	SizeThreshold int
	// AllowOverlap keeps results that share fragments with already
	// accepted results. The default (false) excludes them, following the
	// paper's observation that fragment-sharing pages are redundant.
	AllowOverlap bool
	// CandidateLimit caps how many postings are read per keyword when
	// positive; any non-positive value reads full lists. (0 is the
	// ordinary "unlimited" default; a negative value means the same to
	// the engine but survives handle-level defaults — dash.Open's
	// WithCandidateLimit only fills requests whose limit is exactly 0.)
	// Inverted lists are TF-descending, so reading only the
	// "initial part of Lw" (paper §II) trades a bounded amount of recall
	// for latency on hot keywords. IDF still uses the full DF.
	//
	// Contract: the kept prefix is exactly the CandidateLimit postings of
	// the whole corpus — every shard's, for a sharded engine — that sort
	// highest by (TF descending, fragment identifier ascending). The
	// identifier tie-break makes the cut a function of content when many
	// postings share the cutoff TF: repeated searches, compactions and
	// shard layouts all seed the same candidates.
	CandidateLimit int
	// RequireAll keeps only pages containing every queried keyword
	// (conjunctive semantics); the default scores any matching keyword.
	RequireAll bool
	// MinEpoch is a bounded-staleness routing directive, not a query
	// parameter: the minimum published epoch the serving view must have
	// reached for this request. Routing layers (replica handles, the
	// leader-side read router) consult it to place the read; the engine
	// itself ignores it, and NormalizeRequest clears it so cached results
	// are shared across staleness bounds (a cache entry is already pinned
	// to the epoch set it was computed at).
	MinEpoch uint64
}

// Result is one suggested db-page.
type Result struct {
	// URL regenerates the db-page through the web application ("" when
	// the engine has no application bound).
	URL string
	// QueryString is the URL's query-string part.
	QueryString string
	// Score is the page's TF/IDF relevance.
	Score float64
	// Fragments lists the page's fragments in range order, as refs of the
	// snapshot that holds the page (its shard's, for a sharded engine).
	Fragments []fragindex.FragRef
	// Size is the page's total keyword count.
	Size int64
	// EqValues and RangeLo/RangeHi describe the page's parameter box.
	// EqValues is the page's equality group's own map, shared with the
	// index and with every other result of that group: read-only, like
	// everything else reachable from a (possibly cached) result.
	EqValues         map[string]relation.Value
	RangeLo, RangeHi relation.Value
	// EqKey is the canonical encoding of the page's equality values — the
	// group identity the ranking tie-break and cross-shard merge use, and
	// a convenient grouping key for consumers.
	EqKey string
}

// candidate is the materialised part of a pending db-page: a contiguous
// interval of one equality group's members, which are refs of the pinned
// snapshot shard (groups never straddle shards). weights mirrors members
// (the group path carries node weights), so expansion reads neighbour sizes
// off the path itself. gkey gives the priority queue a content-based
// identity for exact score ties: the queue's order must match the canonical
// result order (compareResults), so that truncating at K keeps the same
// pages whatever the ref numbering. A page's score and size live in its
// heap entry, its occurrence vector in the candOcc arena.
type candidate struct {
	members []fragindex.FragRef // the full group, shared
	weights []int64             // per member: total keyword count, shared
	lo, hi  int                 // inclusive interval within members
	gkey    string              // the group's canonical equality key
	shard   int                 // index of the group's snapshot in the pinned set
}

// heapEntry is a pending db-page as the priority queue sees it; ord is the
// dense ordinal of the fragment that seeded it.
type heapEntry struct {
	score float64
	size  int64
	ord   int32
}

// The seeds are counting-sorted into at most numBuckets score buckets (fewer
// for fewer seeds) that split their range of score bit patterns evenly:
// across a dozen binades one of 256 buckets spans a few percent of score.
const (
	bucketBits = 8
	numBuckets = 1 << bucketBits
)

// searchScratch holds every transient structure one Search needs. It is
// retained between queries so the scoring core allocates nothing in steady
// state; reset un-sets what the query wrote and keeps all capacity.
type searchScratch struct {
	snaps    []*fragindex.Snapshot // the pinned set
	base     []fragindex.FragRef   // per pinned snapshot: its first global ref
	lists    [][]fragindex.Posting // per pinned snapshot: one keyword's live postings
	live     [][]fragindex.Posting // per pinned snapshot: a tombstoned list's live postings
	band     []bandEntry           // CandidateLimit's tie band over the pinned set
	keywords []string
	idf      []float64
	refs     []fragindex.FragRef // candidate global ref per ordinal
	ordOf    []int32             // per global ref: ordinal+1, 0 when not a candidate
	used     []bool              // per global ref: in an accepted result
	usedRefs []fragindex.FragRef // the global refs set in used
	seedOcc  []int64             // pristine occ vectors, ord-major; all zero past its length
	pending  []heapEntry         // the seeds by score bucket, best bucket first
	queued   int                 // pending[:queued] have entered the heap
	minBits  uint64              // smallest seed score's bit pattern
	shift    uint                // bucket = (score bits - minBits) >> shift
	heap     []heapEntry         // by-value priority queue over the queued seeds
	slotOf   []int32             // per ordinal: index+1 into cands, 0 when not materialised
	consumed []bool              // per ordinal: absorbed by expansion
	cands    []candidate         // materialised candidates, in first-use order
	candOcc  []int64             // their expansion-mutated occ vectors, slot-major
	seen     map[uint64]struct{} // emitted page signatures (global refs)
	err      error               // first path materialisation failure
}

// bandEntry is one posting of CandidateLimit's tie band: the shard it came
// from, and the fragment identifier the band is cut by.
type bandEntry struct {
	id    fragment.ID
	shard int
	p     fragindex.Posting
}

// pin installs the pinned set — each snapshot's first global ref, and
// dense tables covering every snapshot's refs.
func (s *searchScratch) pin(snaps []*fragindex.Snapshot) {
	n := 0
	for _, snap := range snaps {
		s.base = append(s.base, fragindex.FragRef(n))
		n += snap.NumRefs()
	}
	s.snaps = append(s.snaps, snaps...)
	for len(s.live) < len(snaps) {
		s.live = append(s.live, nil)
	}
	if len(s.ordOf) < n {
		// Headroom, so a writer appending refs does not re-size the tables
		// of every scratch on every publish.
		s.ordOf = make([]int32, n+n/4)
		s.used = make([]bool, len(s.ordOf))
	}
}

// shardOf returns the index of the pinned snapshot that holds global ref g:
// the last one whose base does not exceed it.
func (s *searchScratch) shardOf(g fragindex.FragRef) int {
	i := len(s.base) - 1
	for s.base[i] > g {
		i--
	}
	return i
}

// reset un-sets the dense tables by walking the refs the query wrote to
// them and drops every pointer into the pinned set, keeping capacity.
func (s *searchScratch) reset() {
	for _, ref := range s.refs {
		s.ordOf[ref] = 0
	}
	for _, ref := range s.usedRefs {
		s.used[ref] = false
	}
	clear(s.cands)
	clear(s.seen)
	clear(s.snaps)
	clear(s.lists[:cap(s.lists)])
	clear(s.band) // kept zero past its length: seedTop clears what it used
	s.snaps, s.base, s.lists, s.band = s.snaps[:0], s.base[:0], s.lists[:0], s.band[:0]
	s.err = nil
	s.keywords = s.keywords[:0]
	s.idf = s.idf[:0]
	s.refs = s.refs[:0]
	s.usedRefs = s.usedRefs[:0]
	clear(s.seedOcc) // the arena stays all zero past its length
	s.seedOcc = s.seedOcc[:0]
	s.pending, s.queued = s.pending[:0], 0
	s.heap = s.heap[:0]
	s.cands = s.cands[:0]
	s.candOcc = s.candOcc[:0]
}

// zeroed returns s resized to n zero elements, reusing its capacity.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// seedKeyword is Algorithm 1's line 1 for keyword i: it folds every pinned
// snapshot's live postings of w into the seed arena (all of them, or the
// CandidateLimit cut over their union) and records w's IDF, 1/ΣDF.
func (s *searchScratch) seedKeyword(i int, w string, limit int) error {
	df := 0
	s.lists = s.lists[:0]
	for si, snap := range s.snaps {
		ps, _ := snap.PostingsIDF(w, &s.live[si])
		s.lists = append(s.lists, ps)
		df += len(ps)
	}
	idf := 0.0
	if df > 0 {
		idf = 1 / float64(df)
	}
	s.idf = append(s.idf, idf)
	seeds := df
	if limit > 0 {
		seeds = min(df, limit)
	}
	// Room for every posting to seed a new candidate; the arena is zero
	// past its length, so a new occurrence vector is a re-slice.
	if need := len(s.seedOcc) + seeds*len(s.keywords); cap(s.seedOcc) < need {
		grown := make([]int64, len(s.seedOcc), need+need/4)
		copy(grown, s.seedOcc)
		s.seedOcc = grown
	}
	if seeds < df {
		return s.seedTop(i, limit)
	}
	for si, ps := range s.lists {
		if err := s.seedPostings(si, i, ps); err != nil {
			return err
		}
	}
	return nil
}

// seedPostings folds pinned snapshot si's postings of keyword i into the
// seed arena. A fragment seen first becomes a candidate: its global ref
// gets the next ordinal and a queue entry sized from its metadata. Each
// candidate ref is validated here, once (AliveRef), which makes the hot
// loop's unchecked accessors safe. Postings only hands out live refs, so a
// failure means the index broke its own invariant: an error, not a silent
// zero-weight page.
func (s *searchScratch) seedPostings(si, i int, ps []fragindex.Posting) error {
	snap, base, nk := s.snaps[si], s.base[si], len(s.keywords)
	n := uint(snap.NumRefs())
	for _, p := range ps {
		if uint(p.Frag) >= n {
			return fmt.Errorf("%w: posting ref %d", fragindex.ErrNoFragment, p.Frag)
		}
		g := base + p.Frag
		ord := s.ordOf[g]
		if ord == 0 {
			if !snap.AliveRef(p.Frag) {
				return fmt.Errorf("%w: posting ref %d", fragindex.ErrNoFragment, p.Frag)
			}
			s.refs = append(s.refs, g)
			ord = int32(len(s.refs))
			s.ordOf[g] = ord
			s.seedOcc = s.seedOcc[:len(s.seedOcc)+nk]
			s.heap = append(s.heap, heapEntry{size: snap.TermsOf(p.Frag), ord: ord - 1})
		}
		s.seedOcc[int(ord-1)*nk+i] += p.TF
	}
	return nil
}

// seedTop seeds the limit postings of keyword i that sort highest over the
// union of the pinned lists by (TF descending, fragment identifier
// ascending) — the paper's partial inverted-list read (§II), exactly as a
// single index over the union reads it. Everything above the cutoff TF is
// seeded straight from the lists; of the band tied at the cutoff, the
// entries with the smallest identifiers are selected (expected O(band), not
// a sort — the band on a hot keyword can dwarf the limit). Identifiers,
// unlike refs, do not move under compaction or a shard layout.
func (s *searchScratch) seedTop(i, limit int) error {
	cut := cutoffTF(s.lists, limit)
	need := limit
	for si, ps := range s.lists {
		// [a, b) is the band of postings tied at the cutoff TF.
		a := sort.Search(len(ps), func(j int) bool { return ps[j].TF <= cut })
		b := sort.Search(len(ps), func(j int) bool { return ps[j].TF < cut })
		if err := s.seedPostings(si, i, ps[:a]); err != nil {
			return err
		}
		need -= a
		for _, p := range ps[a:b] {
			s.band = append(s.band, bandEntry{shard: si, p: p})
		}
	}
	if need < len(s.band) {
		for j := range s.band {
			m, err := s.snaps[s.band[j].shard].Meta(s.band[j].p.Frag)
			if err != nil {
				return err
			}
			s.band[j].id = m.ID
		}
		selectSmallestIDs(s.band, need)
	}
	for _, e := range s.band[:need] {
		if err := s.seedPostings(e.shard, i, []fragindex.Posting{e.p}); err != nil {
			return err
		}
	}
	clear(s.band)
	s.band = s.band[:0]
	return nil
}

// cutoffTF returns the TF of the limit-th posting of the TF-descending
// lists' union in TF order; the union holds more than limit postings.
func cutoffTF(lists [][]fragindex.Posting, limit int) int64 {
	// Binary search for the largest TF that at least limit postings reach:
	// every posting reaches lo, none reaches hi.
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, ps := range lists {
		if len(ps) > 0 {
			lo, hi = min(lo, ps[len(ps)-1].TF), max(hi, ps[0].TF+1)
		}
	}
	for hi-lo > 1 {
		mid, reach := lo+(hi-lo)/2, 0
		for _, ps := range lists {
			reach += sort.Search(len(ps), func(j int) bool { return ps[j].TF < mid })
		}
		if reach >= limit {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// selectSmallestIDs partially partitions band (all entries tied on TF) so
// its first need entries are the ones with the smallest identifiers —
// Hoare quickselect, expected O(len(band)). Identifiers are unique.
func selectSmallestIDs(band []bandEntry, need int) {
	lo, hi := 0, len(band)-1
	for lo < hi {
		pivot := band[(lo+hi)/2].id
		i, j := lo, hi
		for i <= j {
			for band[i].id.Compare(pivot) < 0 {
				i++
			}
			for band[j].id.Compare(pivot) > 0 {
				j--
			}
			if i <= j {
				band[i], band[j] = band[j], band[i]
				i++
				j--
			}
		}
		switch {
		case need-1 <= j:
			hi = j
		case need-1 >= i:
			lo = i
		default:
			return
		}
	}
}

// candLess orders the priority queue: best score first, then the
// deterministic content-based tie-break — smaller page, then the group's
// canonical equality key, then the page's interval position on the group
// path. The tie-break deliberately mirrors compareResults (group members
// are range-ordered, so path positions order like range values) and never
// consults ref numbering: the queue visits pages in an order that is a
// function of page content alone, so a sharded engine (whose global refs
// follow the shard layout) emits — and truncates at K — exactly what a
// single index does. Only an exact
// (score, size) tie reaches the key comparison, and with it the two
// candidates' group paths. Entries that compare equal both ways cover the
// same interval of the same group — the same page — so which of them
// surfaces first never shows in the output.
func (s *searchScratch) candLess(a, b heapEntry) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	if a.size != b.size {
		return a.size < b.size
	}
	sa, sb := s.path(a.ord), s.path(b.ord)
	ca, cb := &s.cands[sa], &s.cands[sb]
	if ca.gkey != cb.gkey {
		return ca.gkey < cb.gkey
	}
	if ca.lo != cb.lo {
		return ca.lo < cb.lo
	}
	return ca.hi < cb.hi
}

// path returns the slot in cands of ord's candidate, materialising it on
// first use: the seed's group path in its shard's snapshot with the
// single-fragment interval, and a mutable copy of its occurrence vector.
// Every ref was validated alive before the queue was built, so GroupPath
// cannot fail; were it to, the error sticks in s.err (which the assembly
// loop checks before it walks any path) and the candidate stays an empty
// interval.
func (s *searchScratch) path(ord int32) int {
	if slot := s.slotOf[ord]; slot != 0 {
		return int(slot) - 1
	}
	g := s.refs[ord]
	si := s.shardOf(g)
	members, weights, gkey, pos, err := s.snaps[si].GroupPath(g - s.base[si])
	if err != nil && s.err == nil {
		s.err = err
	}
	nk := len(s.idf)
	s.cands = append(s.cands, candidate{members: members, weights: weights, lo: pos, hi: pos, gkey: gkey, shard: si})
	s.candOcc = append(s.candOcc, s.seedOcc[int(ord)*nk:int(ord+1)*nk]...)
	s.slotOf[ord] = int32(len(s.cands))
	return len(s.cands) - 1
}

// siftDown restores the heap order below position i — the one primitive
// popTop and the expand-and-reinsert step share.
func (s *searchScratch) siftDown(i int) {
	h := s.heap
	e := h[i]
	for {
		child := 2*i + 1
		if child >= len(h) {
			break
		}
		if r := child + 1; r < len(h) && s.candLess(h[r], h[child]) {
			child = r
		}
		if !s.candLess(h[child], e) {
			break
		}
		h[i] = h[child]
		i = child
	}
	h[i] = e
}

// push adds an entry to the heap and sifts it up.
func (s *searchScratch) push(e heapEntry) {
	s.heap = append(s.heap, e)
	h := s.heap
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.candLess(e, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
}

// popTop removes the queue's head.
func (s *searchScratch) popTop() {
	n := len(s.heap) - 1
	s.heap[0] = s.heap[n]
	s.heap = s.heap[:n]
	if n > 1 {
		s.siftDown(0)
	}
}

// bucketOf maps a score to its bucket; a higher bucket holds strictly
// higher scores. Scores are sums of count × IDF products over a positive
// size — non-negative and finite — and such floats order like their bit
// patterns. Seeds land in [0, numBuckets); a head that expansion rewrote
// can fall outside the seeds' range: below it counts as bucket 0 (it beats
// no seed), above it the bucket number just keeps growing.
func (s *searchScratch) bucketOf(score float64) uint64 {
	b := math.Float64bits(score)
	if b < s.minBits {
		return 0
	}
	return (b - s.minBits) >> s.shift
}

// bucketSeeds empties the heap, which holds every seed in ordinal order and
// no order yet, into s.pending with one counting sort: grouped by bucket,
// best bucket first, in ordinal order within a bucket. The seeds' score bit
// patterns span [minBits, maxBits].
func (s *searchScratch) bucketSeeds(minBits, maxBits uint64) {
	// No more buckets than seeds (rounded up to a power of two): a cold
	// keyword's handful of seeds does not pay for a 256-step prefix pass.
	nb := min(bucketBits, bits.Len(uint(len(s.heap))))
	s.minBits = minBits
	s.shift = uint(max(0, bits.Len64(maxBits-minBits)-nb))
	var next [numBuckets]int32 // per bucket: its seed count, then its next free slot
	for i := range s.heap {
		next[s.bucketOf(s.heap[i].score)]++
	}
	at := int32(0)
	for b := 1<<nb - 1; b >= 0; b-- {
		next[b], at = at, at+next[b]
	}
	if cap(s.pending) < len(s.heap) {
		s.pending = make([]heapEntry, len(s.heap))
	}
	s.pending = s.pending[:len(s.heap)]
	for _, e := range s.heap {
		b := s.bucketOf(e.score)
		s.pending[next[b]] = e
		next[b]++
	}
	s.heap, s.queued = s.heap[:0], 0
}

// refill moves pending buckets into the heap, best first, until the head's
// bucket lies above the next pending one — the head then strictly outscores
// every seed still pending, so it is the candLess minimum over all seeds,
// queued or not — or none is left. A head in the same bucket must pull it:
// the scores may be equal, and then size and the group key decide. The
// assembly loop calls this before every visit of the head.
func (s *searchScratch) refill() {
	for s.queued < len(s.pending) {
		b := s.bucketOf(s.pending[s.queued].score)
		if len(s.heap) > 0 && s.bucketOf(s.heap[0].score) > b {
			return
		}
		for s.queued < len(s.pending) && s.bucketOf(s.pending[s.queued].score) == b {
			s.push(s.pending[s.queued])
			s.queued++
		}
	}
}

// ctxCheckInterval is how many heap pops the assembly loop runs between
// cooperative ctx.Err() polls. A poll is cheap but not free — the standard
// cancelCtx takes an uncontended mutex in Err() — and a pop is a few
// nanoseconds, so polling too densely shows up on the Fig11 hot band.
// 1024 keeps the poll below measurement noise (BenchmarkSearchContextOverhead
// pins this) while still bounding how far past a cancellation a search can
// run to microseconds of expansion work.
const ctxCheckInterval = 1024

// orBackground tolerates a nil context at the API boundary so a forgotten
// ctx degrades to "not cancellable" instead of a panic deep in the loop.
func orBackground(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}

// Search runs Algorithm 1 against the source's current snapshot and
// returns at most req.K results ordered by descending relevance. An
// already-cancelled ctx returns ctx.Err() without resolving the snapshot;
// a cancellation mid-search is honored within ctxCheckInterval heap pops.
func (e *Engine) Search(ctx context.Context, req Request) ([]Result, error) {
	ctx = orBackground(ctx)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return e.search(ctx, req, e.src.Snapshot())
}

// SearchSnapshot runs Algorithm 1 pinned to an explicit snapshot — the
// batch APIs use it to keep multi-query requests internally consistent,
// and callers can hold a snapshot across calls for repeatable reads while
// later versions are published. Cancellation behaves as in Search.
func (e *Engine) SearchSnapshot(ctx context.Context, idx *fragindex.Snapshot, req Request) ([]Result, error) {
	return e.search(orBackground(ctx), req, idx)
}

// search runs Algorithm 1 once over the pinned set snaps — one snapshot,
// or one per shard. Every fragment of the set is a candidate under its
// global ref, IDF is 1/DF over the whole set, and each page is assembled
// inside the shard that holds its group, so the answer is a function of
// the set's content, not of how it is split.
func (e *core) search(ctx context.Context, req Request, snaps ...*fragindex.Snapshot) ([]Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s := e.getScratch(snaps)
	defer e.putScratch(s)

	s.keywords = normalizeKeywords(s.keywords, req.Keywords)
	if len(s.keywords) == 0 {
		return nil, ErrNoKeywords
	}
	if req.K <= 0 {
		return nil, fmt.Errorf("%w: %d", ErrBadK, req.K)
	}
	nk := len(s.keywords)

	// Line 1: fragments relevant to W, with IDF weights and per-fragment
	// occurrence vectors in the flat seed arena; line 2's seeds — single-
	// fragment pages, one queue entry each, sized from the fragment's
	// metadata — are appended in ordinal order as they are found. The group
	// path waits until the page is popped or tied. Seeding a hot keyword
	// walks its whole posting list, so the ctx is polled once per keyword.
	for i, w := range s.keywords {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := s.seedKeyword(i, w, req.CandidateLimit); err != nil {
			return nil, err
		}
	}
	if len(s.refs) == 0 {
		return nil, nil // no relevant fragments, empty result
	}

	// Line 2: score the seeds, recording the range of score bit patterns
	// the buckets will split.
	s.slotOf = zeroed(s.slotOf, len(s.refs))
	s.consumed = zeroed(s.consumed, len(s.refs))
	minBits, maxBits := uint64(math.MaxUint64), uint64(0)
	for ord := range s.heap {
		h := &s.heap[ord]
		h.score = score(s.seedOcc[ord*nk:(ord+1)*nk], h.size, s.idf)
		b := math.Float64bits(h.score)
		minBits, maxBits = min(minBits, b), max(maxBits, b)
	}
	s.bucketSeeds(minBits, maxBits)

	var out []Result

	// Lines 4-9: assemble pages best-first. The loop is where an expensive
	// query spends its time (a visit to the queue's head either expands a
	// page or retires one), so this is where cancellation is polled: once
	// every ctxCheckInterval visits. The heap running empty does not end
	// it while seeds are pending: refill then queues the next bucket.
	pops := 0
	for len(out) < req.K {
		s.refill()
		if len(s.heap) == 0 {
			break
		}
		pops++
		if pops%ctxCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		top := s.heap[0]
		slot := s.path(top.ord)
		if s.err != nil {
			return nil, s.err
		}
		c, occ := &s.cands[slot], s.candOcc[slot*nk:(slot+1)*nk]
		if c.lo == c.hi && s.consumed[top.ord] {
			s.popTop() // seed absorbed into an earlier expansion (line 8)
			continue
		}
		if expandable(c, top.size, req.SizeThreshold) {
			// Expand and reinsert: rewrite the head in place, sift it down.
			size := top.size + s.expand(c, occ)
			s.heap[0].size, s.heap[0].score = size, score(occ, size, s.idf)
			s.siftDown(0)
			continue
		}
		// Line 6-7: not expandable — emit.
		if s.accept(c, occ, &req) {
			res, err := e.resultFor(s.snaps[c.shard], c, top)
			if err != nil {
				return nil, err
			}
			if len(out) == cap(out) {
				// Grown by hand so the capacity never passes K: a cached
				// answer keeps its whole backing array alive, and append
				// would hand a 10-result answer 16 slots.
				grown := make([]Result, len(out), min(req.K, max(16, 2*cap(out))))
				copy(grown, out)
				out = grown
			}
			out = append(out, res)
		}
		s.popTop()
	}

	sortResults(out)
	return out, nil
}

// accept reports whether the finished page c is a new result — not emitted
// before, conjunctive when the request requires it, and (unless overlap is
// allowed) sharing no fragment with an accepted page — and marks an
// accepted page's fragments used.
func (s *searchScratch) accept(c *candidate, occ []int64, req *Request) bool {
	base := s.base[c.shard]
	sig := packRefs(base+c.members[c.lo], base+c.members[c.hi])
	if _, ok := s.seen[sig]; ok {
		return false
	}
	s.seen[sig] = struct{}{}
	if req.RequireAll && !hasAll(occ) {
		return false
	}
	if req.AllowOverlap {
		return true
	}
	page := c.members[c.lo : c.hi+1]
	for _, ref := range page {
		if s.used[base+ref] {
			return false
		}
	}
	for _, ref := range page {
		s.used[base+ref] = true
		s.usedRefs = append(s.usedRefs, base+ref)
	}
	return true
}

// compareResults is the canonical result order: score descending, then
// size ascending, then the page's parameter box (canonical equality key,
// then range interval). It mirrors candLess exactly — group members are
// range-ordered, so candLess's path positions order like the interval here
// — and is a total order over distinct pages that depends only on page
// content, never on internal ref numbering, so the order is identical
// across snapshots, compactions, and shard layouts. (The one unordered
// case: distinct intervals over duplicate range values can share a
// parameter box — but such pages regenerate the same URL, so their
// relative order is immaterial at the API surface.)
func compareResults(a, b *Result) int {
	switch {
	case a.Score > b.Score:
		return -1
	case a.Score < b.Score:
		return 1
	}
	switch {
	case a.Size < b.Size:
		return -1
	case a.Size > b.Size:
		return 1
	}
	switch {
	case a.EqKey < b.EqKey:
		return -1
	case a.EqKey > b.EqKey:
		return 1
	}
	if c := a.RangeLo.Compare(b.RangeLo); c != 0 {
		return c
	}
	return a.RangeHi.Compare(b.RangeHi)
}

// sortResults orders results canonically (see compareResults).
func sortResults(out []Result) {
	slices.SortStableFunc(out, func(a, b Result) int { return compareResults(&a, &b) })
}

// expandable implements line 6's test: the page is smaller than s and a
// neighbour fragment exists.
func expandable(c *candidate, size int64, s int) bool {
	if size >= int64(s) {
		return false
	}
	return c.lo > 0 || c.hi < len(c.members)-1
}

// gainOf returns a neighbour's weighted occurrence gain (0 when the
// fragment carries none of the queried keywords) and its dense ordinal
// (-1 when it is not a candidate); ref is global.
func (s *searchScratch) gainOf(ref fragindex.FragRef, nk int) (float64, int32) {
	ord := s.ordOf[ref] - 1
	if ord < 0 {
		return 0, -1
	}
	return weighted(s.seedOcc[int(ord)*nk:int(ord+1)*nk], s.idf), ord
}

// expand grows the page by its best neighbour — relevant fragments are
// favoured (highest added weighted occurrence), then smaller fragments —
// folding the neighbour's occurrences into occ and returning its weight.
// An absorbed relevant seed is marked consumed so its queue entry dies.
// Neighbour refs and weights come straight off the candidate's group path,
// so the inner loop never dereferences fragment metadata.
func (s *searchScratch) expand(c *candidate, occ []int64) int64 {
	var (
		bestOrd    int32
		bestGain   float64
		bestWeight int64
		bestLeft   bool
	)
	nk, base := len(occ), s.base[c.shard]
	if c.lo > 0 {
		bestGain, bestOrd = s.gainOf(base+c.members[c.lo-1], nk)
		bestWeight = c.weights[c.lo-1]
		bestLeft = true
	}
	if c.hi < len(c.members)-1 {
		w := c.weights[c.hi+1]
		gain, ord := s.gainOf(base+c.members[c.hi+1], nk)
		if !bestLeft || gain > bestGain || (gain == bestGain && w < bestWeight) {
			bestOrd, bestGain, bestWeight, bestLeft = ord, gain, w, false
		}
	}
	if bestLeft {
		c.lo--
	} else {
		c.hi++
	}
	if bestOrd >= 0 {
		seed := s.seedOcc[int(bestOrd)*nk : int(bestOrd+1)*nk]
		for i := range occ {
			occ[i] += seed[i]
		}
		s.consumed[bestOrd] = true
	}
	return bestWeight
}

// score computes Σ_w (occ_w / size) × IDF_w.
func score(occ []int64, size int64, idf []float64) float64 {
	if size == 0 {
		return 0
	}
	return weighted(occ, idf) / float64(size)
}

// hasAll reports whether every queried keyword occurs in the page.
func hasAll(occ []int64) bool {
	for _, n := range occ {
		if n == 0 {
			return false
		}
	}
	return true
}

// weighted computes Σ_w occ_w × IDF_w (occ may be nil for an irrelevant
// fragment).
func weighted(occ []int64, idf []float64) float64 {
	var sum float64
	for i, n := range occ {
		sum += float64(n) * idf[i]
	}
	return sum
}

// resultFor formulates the page's parameter box and URL (line 10) from
// idx, the snapshot that holds the page.
func (e *core) resultFor(idx *fragindex.Snapshot, c *candidate, page heapEntry) (Result, error) {
	frags := slices.Clone(c.members[c.lo : c.hi+1])
	eqVals, err := idx.EqValues(frags[0])
	if err != nil {
		return Result{}, err
	}
	lo, err := idx.RangeValue(frags[0])
	if err != nil {
		return Result{}, err
	}
	hi, err := idx.RangeValue(frags[len(frags)-1])
	if err != nil {
		return Result{}, err
	}
	res := Result{
		Score:     page.score,
		Fragments: frags,
		Size:      page.size,
		EqValues:  eqVals,
		RangeLo:   lo,
		RangeHi:   hi,
		EqKey:     c.gkey,
	}
	if e.app != nil {
		params, err := e.app.PageParams(eqVals, lo, hi)
		if err != nil {
			return Result{}, err
		}
		res.QueryString, err = e.app.FormatQueryString(params)
		if err != nil {
			return Result{}, err
		}
		res.URL = e.app.URLFor(res.QueryString)
	}
	return res, nil
}

// packRefs identifies a page by its fragment interval endpoints packed
// into one uint64 (global refs are int32 and unique over the pinned set,
// so the pair pins the page down without an fmt.Sprintf key).
func packRefs(lo, hi fragindex.FragRef) uint64 {
	return uint64(uint32(lo))<<32 | uint64(uint32(hi))
}

// normalizeKeywords lower-cases, splits, deduplicates, and sorts query
// keywords into dst (reused across queries) — the one canonical keyword
// form the whole serving path agrees on. Sorting makes the internal
// keyword order (and with it every occurrence vector and floating-point
// score summation) a function of the keyword *set*, never the order the
// caller happened to write, so any permutation of the same keywords
// returns byte-identical results — the property the epoch-keyed result
// cache relies on to collapse equal-meaning requests onto one entry
// (see NormalizeRequest). Typical queries are a handful of words, where
// a linear-scan dedup is allocation-free; past dedupScanLimit distinct
// keywords it falls back to a map so a huge user-supplied query string
// stays linear, not quadratic.
const dedupScanLimit = 24

func normalizeKeywords(dst []string, words []string) []string {
	dst = dedupKeywords(dst, words)
	sort.Strings(dst)
	return dst
}

func dedupKeywords(dst []string, words []string) []string {
	var seen map[string]struct{}
	var one [1]string
	for _, w := range words {
		fields := one[:]
		if isLowerWord(w) {
			one[0] = w
		} else {
			fields = strings.Fields(strings.ToLower(w))
		}
		for _, f := range fields {
			if seen != nil {
				if _, dup := seen[f]; !dup {
					seen[f] = struct{}{}
					dst = append(dst, f)
				}
				continue
			}
			dup := false
			for _, have := range dst {
				if have == f {
					dup = true
					break
				}
			}
			if !dup {
				dst = append(dst, f)
				if len(dst) > dedupScanLimit {
					seen = make(map[string]struct{}, 2*len(dst))
					for _, have := range dst {
						seen[have] = struct{}{}
					}
				}
			}
		}
	}
	return dst
}

// isLowerWord reports whether w is already the one field
// strings.Fields(strings.ToLower(w)) would yield — non-empty ASCII with no
// upper-case letter and no white space — which is what an already split,
// already canonical keyword looks like; the check saves the field slice.
func isLowerWord(w string) bool {
	for i := 0; i < len(w); i++ {
		if c := w[i]; c <= ' ' || c >= 0x7f || 'A' <= c && c <= 'Z' {
			return false
		}
	}
	return w != ""
}
