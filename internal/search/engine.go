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
// A cache miss reads about a tenth of the postings its keywords' lists
// hold, through one seeding walk, and the scoring core allocates nothing
// in steady state. Each query borrows a searchScratch holding every
// transient structure Algorithm 1 needs:
//
//   - Seeds on demand. Posting lists are stored impact-descending (tf
//     over the fragment's total; see fragindex.Cursor), and open makes
//     one cursor per (pinned snapshot, keyword) whose bound — IDF × the
//     impact of its next posting — caps what anything behind it adds to
//     a one-fragment page's score. A fragment no cursor has reached
//     therefore scores at most τ, the sum over keywords of the largest
//     bound, and before every visit of the head fill reads blocks — the
//     head and the rest of its block, from the cursor with the largest
//     bound — until the head lies strictly above τ (by a few units in
//     the last place, since τ must bound the computed score) or every
//     cursor is exhausted. Such a head is the candLess minimum over all
//     seeds, registered or not, so the loop visits entries in exactly
//     the order a queue over all of them would.
//   - Lazily completed seeds. A fragment is registered when a block
//     first holds it. Its TF for another keyword is 0 where that
//     keyword's cursor proves it, and otherwise unknown until a later
//     block holds it, or until the seed is completed: a probe of a dense
//     TF-per-ref table of the keyword, which the first probe fills from
//     the keyword's lists (see tf). Until then the seed waits under an
//     upper bound on its score. An expansion prices a neighbour the same
//     way. A query that never settles reads every block and so completes
//     every seed with no probe; one of more keywords than a scratch keeps
//     TF tables for (maxTables) reads every list at open. Under
//     CandidateLimit, whose cut needs every posting, seedTop walks the
//     lists and queues every kept seed, exact, up front instead.
//   - One deferred queue. Registered seeds wait in score buckets over
//     fixed ranges of float bits, counted down from τ at open, sixteen to
//     a power of two; a push is an append. Before the τ test refill moves
//     the best bucket into the candLess heap while the head does not lie
//     above it, completing the seeds queued
//     under a bound on the way (one whose exact score falls to a worse
//     bucket goes there). Heap entries are exact; on
//     BenchmarkSearchMissQ2 a miss heaps 118 of its 544 seeds (pushes/op).
//   - Dense ref-indexed tables. Candidate fragments get dense ordinals in
//     registration order; ordOf maps a global ref (a shard's base plus
//     its FragRef) to its ordinal through a flat []int32 sized from the
//     pinned set's Σ Snapshot.NumRefs (used marks accepted pages'
//     fragments the same way), so registering a posting and pricing an
//     expansion neighbour are bounds-checked loads, not hash probes. The
//     tables are un-set by walking the refs the query touched —
//     O(candidates), never O(refs) — so a scratch moves between snapshots
//     of any size without a sweep. Per-keyword occurrence counts live in
//     a flat seed arena (numCandidates × numKeywords int64s) that is kept
//     zero past its length, so a new candidate's vector is a re-slice.
//   - Lazy group paths. A candidate's path (members, weights, group key,
//     interval) and its mutable occurrence vector are materialised on its
//     first visit; an exact (score, size) tie between seeds not yet
//     visited compares the group key and path position the index holds
//     for them (Snapshot.GroupSlot).
//   - Scratch retention. Released scratches go to a small per-Engine free
//     list (GOMAXPROCS entries) that, unlike the sync.Pool behind it,
//     survives GC cycles, so a steady stream of misses re-uses its arenas
//     instead of re-making them. A released scratch holds no pointer into
//     the snapshots it served.
//   - Page identity is a packed uint64 of the interval's endpoint refs
//     (FragRefs are int32), not an fmt.Sprintf string.
//
// Only per-result work (URL formulation, the returned slice) allocates, and
// the returned slice's capacity never exceeds K. SeedStats counts what the
// searches read: postings read and tabulated, TF probes, seeds registered,
// heap pushes, and the searches that read every list to the end.
//
// # Cancellation
//
// Every search takes a context.Context first, like every other method on
// the serving path. A context that is already cancelled when Search is
// called returns ctx.Err() before the snapshot is even resolved; a
// cancellation or deadline that arrives mid-search is observed
// cooperatively — ctx.Err() is polled once per keyword while the cursors
// open, then once every ctxCheckInterval queue visits and postings
// read, so a runaway query on a hot keyword stops
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
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

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
	seeding seedCounters
}

// seedCounters sums the seeding work of every search the core ran (see
// SeedStats): each search adds its own counts once, as it releases its
// scratch.
type seedCounters struct {
	searches, drains, postings, tabulated, probes, seeds, pushes atomic.Uint64
}

// SeedStats reports the seeding work of every search that reached the
// scoring core since the engine was made (result-cache hits never do).
func (e *core) SeedStats() SeedStats {
	c := &e.seeding
	return SeedStats{
		Searches:  c.searches.Load(),
		Drains:    c.drains.Load(),
		Postings:  c.postings.Load(),
		Tabulated: c.tabulated.Load(),
		Probes:    c.probes.Load(),
		Seeds:     c.seeds.Load(),
		Pushes:    c.pushes.Load(),
	}
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

// putScratch adds the search's seeding counts to the engine's, then resets
// the scratch and retains it.
func (e *core) putScratch(s *searchScratch) {
	c := &e.seeding
	c.searches.Add(1)
	if len(s.curs) > 0 && !slices.ContainsFunc(s.curs, func(c cursor) bool { return !c.done }) {
		c.drains.Add(1) // the walk read every list to the end
	}
	c.postings.Add(uint64(s.postings))
	c.tabulated.Add(uint64(s.tabulated))
	c.probes.Add(uint64(s.probes))
	c.seeds.Add(uint64(len(s.refs)))
	c.pushes.Add(uint64(s.pushes))
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
	// CandidateLimit, when positive, keeps only that many postings per
	// keyword as seeds — the "initial part of Lw" of paper §II, a list
	// in TF order — trading a bounded amount of recall; any non-positive
	// value keeps them all (and reads only what the threshold bound
	// needs). The cut itself needs every posting, so it saves no reads
	// since lists are stored in impact order. IDF still uses the full DF.
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

// cursor is one (keyword, pinned snapshot) posting cursor of the lazy seed
// source, primed with the next posting it has not handed out.
type cursor struct {
	c     fragindex.Cursor
	head  fragindex.Posting // the next unread posting
	terms int64             // its fragment's total keyword count
	bound float64           // IDF × the head's impact: no unread posting scores more
	done  bool              // exhausted (and zeroed: no pointer into the snapshot)
}

// deferredEntry is a seed waiting in a score bucket: its queue entry,
// keyed by its exact score or, while bound is set, by an upper bound on it,
// and the bucket's next entry.
type deferredEntry struct {
	heapEntry
	next  int32 // index+1 in deferred of the bucket's next entry, 0 at its end
	bound bool  // score bounds an occurrence vector that had unknown TFs
}

// searchScratch holds every transient structure one Search needs. It is
// retained between queries so the scoring core allocates nothing in steady
// state; reset un-sets what the query wrote and keeps all capacity.
type searchScratch struct {
	snaps     []*fragindex.Snapshot // the pinned set
	base      []fragindex.FragRef   // per pinned snapshot: its first global ref
	curs      []cursor              // lazy seeding: per (keyword, pinned snapshot), keyword-major
	band      []bandEntry           // CandidateLimit: one keyword's live postings over the pinned set
	keywords  []string
	idf       []float64
	margin    float64             // τ's relative widening (see fill)
	tabs      [][]uint64          // lazy seeding: per keyword, its stamped TF per global ref once tabulated, else nil
	tabBufs   [][]uint64          // per keyword index, at most maxTables: storage for tabs (see tabulate)
	stamp     uint32              // this search's table stamp; no table entry carries a later one
	refs      []fragindex.FragRef // candidate global ref per ordinal
	ordOf     []int32             // per global ref: ordinal+1, 0 when unknown, -1 when probed irrelevant
	misses    []fragindex.FragRef // the global refs probed irrelevant
	used      []bool              // per global ref: in an accepted result
	usedRefs  []fragindex.FragRef // the global refs set in used
	seedOcc   []int64             // pristine occ vectors, ord-major, -1 for an unknown TF; all zero past its length
	probeOcc  []int64             // one neighbour's probed occ vector
	heap      []heapEntry         // by-value candLess priority queue; exact scores only
	deferred  []deferredEntry     // the seeds pushed to the score buckets, linked per bucket
	buckets   [numBuckets]int32   // per bucket: index+1 in deferred of its last push, 0 when empty
	best      int                 // no bucket before it holds a seed
	topBits   uint64              // τ at open, widened, as float bits: bucket 0 holds it and every score above
	slotOf    []int32             // per ordinal: index+1 into cands, 0 when not materialised
	tkey      []string            // per ordinal: the group key, once an exact tie has read it
	tpos      []int32             // per ordinal: the path position read with tkey, -1 before
	consumed  []bool              // per ordinal: absorbed by expansion
	cands     []candidate         // materialised candidates, in first-use order
	candOcc   []int64             // their expansion-mutated occ vectors, slot-major
	seen      map[uint64]struct{} // emitted page signatures (global refs)
	work      int                 // queue visits plus postings read: paces the ctx polls
	postings  int                 // this search's seeding counts (see SeedStats)
	tabulated int
	probes    int
	pushes    int
	err       error // first path materialisation failure
}

// bandEntry is one posting of CandidateLimit's walk: the shard it came
// from, its fragment's total, and the fragment identifier the tie band at
// the cutoff TF is cut by.
type bandEntry struct {
	id    fragment.ID
	shard int
	terms int64
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
	for _, ref := range s.misses {
		s.ordOf[ref] = 0
	}
	for _, ref := range s.usedRefs {
		s.used[ref] = false
	}
	clear(s.cands)
	clear(s.seen)
	clear(s.snaps)
	clear(s.curs)
	clear(s.band) // kept zero past its length: seedTop clears what it used
	s.snaps, s.base, s.curs, s.band = s.snaps[:0], s.base[:0], s.curs[:0], s.band[:0]
	s.err = nil
	s.keywords = s.keywords[:0]
	s.idf = s.idf[:0]
	s.refs, s.misses = s.refs[:0], s.misses[:0]
	s.usedRefs = s.usedRefs[:0]
	clear(s.seedOcc) // the arena stays all zero past its length
	s.seedOcc = s.seedOcc[:0]
	s.heap, s.deferred = s.heap[:0], s.deferred[:0]
	s.buckets, s.best = [numBuckets]int32{}, numBuckets
	s.slotOf, s.consumed = s.slotOf[:0], s.consumed[:0]
	clear(s.tkey)
	s.tkey, s.tpos = s.tkey[:0], s.tpos[:0]
	s.cands = s.cands[:0]
	s.candOcc = s.candOcc[:0]
	clear(s.tabs)
	s.tabs = s.tabs[:0]
	s.work, s.postings, s.tabulated, s.probes, s.pushes = 0, 0, 0, 0, 0
}

// tick counts one unit of work — a queue visit or a posting read — and
// polls ctx once every ctxCheckInterval units.
func (s *searchScratch) tick(ctx context.Context) error {
	if s.work++; s.work%ctxCheckInterval == 0 {
		return ctx.Err()
	}
	return nil
}

// idfOf is Dash's IDF over the pinned set: 1/ΣDF, 0 for an absent keyword.
func idfOf(df int) float64 {
	if df == 0 {
		return 0
	}
	return 1 / float64(df)
}

// register gives global ref g the next ordinal, with a zero occurrence
// vector in the seed arena (a re-slice: the arena is zero past its length).
func (s *searchScratch) register(g fragindex.FragRef) int32 {
	s.refs = append(s.refs, g)
	s.ordOf[g] = int32(len(s.refs))
	s.slotOf = append(s.slotOf, 0)
	s.consumed = append(s.consumed, false)
	s.tkey, s.tpos = append(s.tkey, ""), append(s.tpos, -1)
	nk := len(s.keywords)
	s.seedOcc = slices.Grow(s.seedOcc, nk)[:len(s.seedOcc)+nk]
	return int32(len(s.refs) - 1)
}

// occOf returns ordinal ord's pristine occurrence vector.
func (s *searchScratch) occOf(ord int32) []int64 {
	nk := len(s.keywords)
	return s.seedOcc[int(ord)*nk : int(ord+1)*nk]
}

// open is Algorithm 1's line 1 on demand: it opens one cursor per (keyword,
// pinned snapshot), records each keyword's IDF, 1/ΣDF, primes every cursor
// with its first posting and sets the buckets' top to τ. No posting past
// the first is read here — fill reads the rest as the queue needs them —
// unless the query has more keywords than a scratch keeps TF tables for:
// then no probe could be priced, so open reads every list to the end, and
// every TF is known or proven 0 before the first seed is completed.
func (s *searchScratch) open(ctx context.Context) error {
	nk, ns := len(s.keywords), len(s.snaps)
	// The score and τ sums each round at most nk+1 times (nk products or
	// quotients and nk-1 additions, then a division or none), so a
	// relative 2(nk+1) units in the last place bounds their disagreement;
	// twice that, plus slack for widening τ itself, is the margin.
	s.margin = float64(4*nk+16) * 0x1p-53
	if s.stamp++; s.stamp == 0 { // the stamps wrapped: no old entry may match
		for _, t := range s.tabBufs {
			clear(t)
		}
		s.stamp = 1
	}
	for i, w := range s.keywords {
		// One poll per keyword, as when seeding walked whole lists.
		if err := ctx.Err(); err != nil {
			return err
		}
		df := 0
		for _, snap := range s.snaps {
			c, n := snap.Cursor(w)
			s.curs = append(s.curs, cursor{c: c})
			df += n
		}
		s.tabs = append(s.tabs, nil)
		s.idf = append(s.idf, idfOf(df))
		for ci := i * ns; ci < (i+1)*ns; ci++ {
			s.advance(ci)
		}
	}
	tau, _ := s.tau()
	s.topBits = math.Float64bits(tau + tau*s.margin)
	if nk > maxTables {
		for ci := range s.curs {
			for !s.curs[ci].done {
				if err := s.read(ctx, ci); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// advance moves cursor ci to its next live posting and recomputes its
// bound: IDF × tf/total, the most any posting it has not handed out adds
// to a one-fragment page's score (lists are impact-descending). An
// exhausted cursor is zeroed, dropping its pointers into the snapshot.
func (s *searchScratch) advance(ci int) {
	c := &s.curs[ci]
	p, terms, ok := c.c.Next()
	if !ok {
		*c = cursor{done: true}
		return
	}
	s.postings++
	c.head, c.terms, c.bound = p, terms, 0
	if terms > 0 {
		c.bound = s.idf[ci/len(s.snaps)] * (float64(p.TF) / float64(terms))
	}
}

// tau returns τ = Σ_w max over shards of the cursor bounds, which no
// fragment no cursor has reached outscores, and the cursor with the
// largest bound, the one whose block lowers τ most (-1 once every cursor
// is exhausted).
func (s *searchScratch) tau() (tau float64, next int) {
	ns, next, nextBound := len(s.snaps), -1, 0.0
	for first := 0; first < len(s.curs); first += ns { // per keyword; none under CandidateLimit
		top := 0.0
		for ci := first; ci < first+ns; ci++ {
			c := &s.curs[ci]
			if c.done {
				continue
			}
			top = max(top, c.bound)
			if next < 0 || c.bound > nextBound {
				next, nextBound = ci, c.bound
			}
		}
		tau += top
	}
	return tau, next
}

// fill reads blocks until the queue's head strictly outscores every seed
// not yet registered, or every cursor is exhausted. A fragment no cursor
// has reached has each of its postings at or behind its list's cursor, so
// its score is at most τ; the head must lie strictly above τ, because on
// an equal score the tie-break (size, group key, path position) decides,
// and above it by a few units in the last place (margin), because τ must
// bound the *computed* score, which rounds differently from τ's own sum.
// refill has made the head the candLess minimum over every registered
// seed, so such a head is the minimum over all seeds, registered or not,
// and the loop visits exactly what a queue holding every seed from the
// start would. fill runs before every visit:
// expansion rewrites the head in place and can move its score either way.
// A query that never settles reads every block, and then completes every
// seed with no probe.
func (s *searchScratch) fill(ctx context.Context) error {
	for {
		s.refill()
		tau, next := s.tau()
		if next < 0 || len(s.heap) > 0 && s.heap[0].score > tau+tau*s.margin {
			return nil
		}
		if err := s.read(ctx, next); err != nil {
			return err
		}
	}
}

// read takes cursor ci's head and the rest of its block — the block as it
// lies, tombstones included — hands each posting to see, and advances the
// cursor. Every posting is a unit of work for the ctx polls.
func (s *searchScratch) read(ctx context.Context, ci int) error {
	i, si := ci/len(s.snaps), ci%len(s.snaps)
	head, rest := s.curs[ci].head, s.curs[ci].c.Block()
	s.postings += len(rest)
	if err := s.tick(ctx); err != nil {
		return err
	}
	s.see(i, si, head)
	for _, p := range rest {
		if err := s.tick(ctx); err != nil {
			return err
		}
		s.see(i, si, p)
	}
	s.advance(ci)
	return nil
}

// see takes posting p of keyword i's list in pinned snapshot si. A
// registered fragment gets its TF for i filled in, with no probe (if it
// was known, it is this TF). A live fragment seen for the first time is
// registered: its TF for another keyword j is 0 where j's cursor proves it
// (see zeroTF) and otherwise unknown, -1. It is queued under its exact
// score when every TF is known, and otherwise under an upper bound: the
// known part plus each unknown keyword's cursor bound, widened by τ's
// margin — j's posting of the fragment lies at or behind that cursor.
func (s *searchScratch) see(i, si int, p fragindex.Posting) {
	nk, ns := len(s.keywords), len(s.snaps)
	g := s.base[si] + p.Frag
	if ord := s.ordOf[g]; ord > 0 {
		s.seedOcc[int(ord-1)*nk+i] = int64(p.TF)
		return
	} else if ord < 0 || !s.snaps[si].AliveRef(p.Frag) {
		return
	}
	ord := s.register(g)
	terms := s.snaps[si].TermsOf(p.Frag)
	occ := s.occOf(ord)
	occ[i] = int64(p.TF)
	known, rest, bound := float64(p.TF)*s.idf[i], 0.0, false
	for j := range occ {
		if j == i || s.zeroTF(j, si, terms) {
			continue
		}
		occ[j], rest, bound = -1, rest+s.curs[j*ns+si].bound, true
	}
	e := heapEntry{size: terms, ord: ord}
	switch {
	case !bound:
		e.score = score(occ, terms, s.idf)
	case terms > 0:
		ub := known/float64(terms) + rest
		e.score = ub + ub*s.margin
	}
	s.enqueue(e, bound)
}

// zeroTF reports whether keyword j's cursor over pinned snapshot si proves
// that a fragment of total terms, whose posting for j no block read so far
// held, has TF 0 for j: its posting would lie at or behind the cursor, at
// impact at least 1/terms, so it has none when the cursor is exhausted or
// its head's impact is already below 1/terms (compared exactly, as
// head.TF × terms < head.terms).
func (s *searchScratch) zeroTF(j, si int, terms int64) bool {
	c := &s.curs[j*len(s.snaps)+si]
	return c.done || terms > 0 && int64(c.head.TF)*terms < c.terms
}

// complete fills in ordinal ord's unknown TFs (see tf); size is its
// fragment's total.
func (s *searchScratch) complete(ord int32, size int64) {
	occ := s.occOf(ord)
	for j, n := range occ {
		if n < 0 {
			g := s.refs[ord]
			si := s.shardOf(g)
			occ[j] = s.tf(j, si, g-s.base[si], size)
		}
	}
}

// tf returns keyword j's TF in a fragment ref of pinned snapshot si, of
// total terms, whose posting for j no block read so far held: 0 where the
// cursor proves it (zeroTF), and otherwise a probe of j's table,
// tabulating j on its first probe.
//
// A table, not the fragment's forward map, answers probes because a cache
// miss's probes land on fragments it has not touched: reading a forward
// map then costs a cache miss or two per probe, while tabulating costs a
// sequential walk of the list and one store per posting, and a query of
// several keywords probes each of them hundreds of times. Measured on the
// search_uncached workload, forward-map probes (with a tabulation
// fallback past a share of the DF) left more server CPU per miss than
// tabulating every probed keyword outright.
func (s *searchScratch) tf(j, si int, ref fragindex.FragRef, terms int64) int64 {
	if s.zeroTF(j, si, terms) {
		return 0
	}
	s.probes++
	t := s.tabs[j]
	if t == nil {
		t = s.tabulate(j)
	}
	if e := t[s.base[si]+ref]; uint32(e>>32) == s.stamp {
		return int64(int32(uint32(e)))
	}
	return 0
}

// maxTables bounds the TF tables one search fills, and with them what a
// retained scratch keeps: a table costs 8 B per ref of the pinned set,
// beside the 5 B per ref of ordOf and used. A query of more keywords reads
// every list at open, so no probe of it looks a table up, and a scratch
// never holds more than maxTables of them, however many keywords the
// queries it served carried. The search_uncached mix has at most three.
const maxTables = 4

// tabulate copies keyword j's TF per global ref over the pinned set into a
// dense table, which answers j's probes, and returns it. Each entry
// carries the search's stamp above its TF, so an entry an earlier search
// wrote reads as 0 and no table is ever cleared; the stamps restart, and
// the tables are cleared, once in 2³² searches. Tombstoned postings are
// copied too: only live refs are ever probed. Its postings count as
// tabulated, not as read.
func (s *searchScratch) tabulate(j int) []uint64 {
	for len(s.tabBufs) <= j {
		s.tabBufs = append(s.tabBufs, nil)
	}
	t := s.tabBufs[j]
	if len(t) < len(s.ordOf) {
		t = make([]uint64, len(s.ordOf))
		s.tabBufs[j] = t
	}
	s.tabs[j] = t
	stamp := uint64(s.stamp) << 32
	for si, snap := range s.snaps {
		c, _ := snap.Cursor(s.keywords[j])
		for ps := c.Block(); ps != nil; ps = c.Block() {
			for _, p := range ps {
				t[s.base[si]+p.Frag] = stamp | uint64(uint32(p.TF))
			}
			s.tabulated += len(ps)
		}
	}
	return t
}

// The deferred queue is numBuckets score buckets over fixed ranges of
// float bits, counted down from τ at open (topBits), 1<<(52-bucketShift)
// of them per power of two; the last one also holds every score below.
// Scores are non-negative and finite, and such floats order like their
// bit patterns, so a seed in a lower-numbered bucket outscores every seed
// in a higher-numbered one. A push is an append; a bucket is ordered only
// once refill moves it into the heap. Most seeds never reach the head, and
// a bucket costs them an append where a heap would cost each a sift (see
// ARCHITECTURE.md "Scoring core" for the layouts measured).
const (
	numBuckets  = 256
	bucketShift = 48
)

// bucketOf maps a score to its bucket, 0 (the best) up.
func (s *searchScratch) bucketOf(score float64) int {
	d := s.topBits - min(math.Float64bits(score), s.topBits)
	return int(min(d>>bucketShift, numBuckets-1))
}

// enqueue pushes a registered seed into its score's bucket.
func (s *searchScratch) enqueue(e heapEntry, bound bool) {
	s.deferred = append(s.deferred, deferredEntry{heapEntry: e, bound: bound})
	s.link(len(s.deferred) - 1)
}

// link puts deferred[k] at the front of its score's bucket.
func (s *searchScratch) link(k int) {
	d := &s.deferred[k]
	b := s.bucketOf(d.score)
	d.next, s.buckets[b] = s.buckets[b], int32(k+1)
	s.best = min(s.best, b)
}

// refill moves the best bucket into the heap, again and again, until the
// head's bucket lies above every bucket still holding a seed: the head
// then strictly outscores every seed still deferred, so it is the candLess
// minimum over all registered seeds. A seed an expansion absorbed is
// dropped on the way. One queued under a
// bound is completed first (see complete), and goes back to the bucket of
// its exact score when that bucket is a worse one; so every heap entry is
// exact.
func (s *searchScratch) refill() {
	for ; s.best < numBuckets; s.best++ {
		at := s.buckets[s.best]
		if at == 0 {
			continue
		}
		if len(s.heap) > 0 && s.bucketOf(s.heap[0].score) < s.best {
			return
		}
		s.buckets[s.best] = 0
		for at != 0 {
			d := s.deferred[at-1]
			at = d.next
			if s.consumed[d.ord] {
				continue
			}
			if d.bound {
				s.complete(d.ord, d.size)
				if d.score = score(s.occOf(d.ord), d.size, s.idf); s.bucketOf(d.score) > s.best {
					s.enqueue(d.heapEntry, false)
					continue
				}
			}
			s.push(d.heapEntry)
		}
	}
}

// seedTop is Algorithm 1's line 1 under CandidateLimit: for each keyword it
// walks every live posting of the pinned set, keeps the limit that sort
// highest by (TF descending, fragment identifier ascending) — the paper's
// partial inverted-list read (§II), exactly as a single index over the
// union reads it — and seeds them. Occurrence vectors hold only what the
// kept postings carry, and expansion probes nothing, so the cut means
// what it always has. Once every IDF is known, the seeds are scored and
// pushed into the buckets, counted down from the best score. The ctx is
// polled once per keyword.
func (s *searchScratch) seedTop(ctx context.Context, limit int) error {
	for i, w := range s.keywords {
		if err := ctx.Err(); err != nil {
			return err
		}
		df := 0
		for si, snap := range s.snaps {
			c, n := snap.Cursor(w)
			df += n
			for p, terms, ok := c.Next(); ok; p, terms, ok = c.Next() {
				s.band = append(s.band, bandEntry{shard: si, terms: terms, p: p})
			}
		}
		s.idf = append(s.idf, idfOf(df))
		s.postings += len(s.band)
		keep, err := s.cutBand(limit)
		if err != nil {
			return err
		}
		for _, e := range keep {
			g := s.base[e.shard] + e.p.Frag
			ord := s.ordOf[g] - 1
			if ord < 0 {
				ord = s.register(g)
				s.deferred = append(s.deferred, deferredEntry{heapEntry: heapEntry{size: e.terms, ord: ord}})
			}
			s.occOf(ord)[i] += int64(e.p.TF)
		}
		clear(s.band)
		s.band = s.band[:0]
	}
	top := 0.0
	for k := range s.deferred {
		d := &s.deferred[k]
		d.score = score(s.occOf(d.ord), d.size, s.idf)
		top = max(top, d.score)
	}
	s.topBits = math.Float64bits(top)
	for k := range s.deferred {
		s.link(k)
	}
	return nil
}

// cutBand returns the limit entries of s.band (one keyword's postings over
// the pinned set) that sort highest by (TF descending, identifier
// ascending), or all of them when there are no more than limit. Everything
// above the cutoff TF is kept; of the band tied at the cutoff, the entries
// with the smallest identifiers are selected (expected O(band), not a sort
// — the band on a hot keyword can dwarf the limit). Identifiers, unlike
// refs, do not move under compaction or a shard layout.
func (s *searchScratch) cutBand(limit int) ([]bandEntry, error) {
	all := s.band
	if len(all) <= limit {
		return all, nil
	}
	slices.SortFunc(all, func(a, b bandEntry) int { return cmp.Compare(b.p.TF, a.p.TF) })
	cut := all[limit-1].p.TF
	// [a, b) is the band of postings tied at the cutoff TF.
	a := sort.Search(len(all), func(j int) bool { return all[j].p.TF <= cut })
	b := sort.Search(len(all), func(j int) bool { return all[j].p.TF < cut })
	if band := all[a:b]; limit-a < len(band) {
		for j := range band {
			m, err := s.snaps[band[j].shard].Meta(band[j].p.Frag)
			if err != nil {
				return nil, err
			}
			band[j].id = m.ID
		}
		selectSmallestIDs(band, limit-a)
	}
	return all[:limit], nil
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
// single index does. Only an exact (score, size) tie reaches the key
// comparison (see tieKey). Entries that compare equal both ways cover the
// same interval of the same group — the same page — so which of them
// surfaces first never shows in the output.
func (s *searchScratch) candLess(a, b heapEntry) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	if a.size != b.size {
		return a.size < b.size
	}
	ka, loA, hiA := s.tieKey(a.ord)
	kb, loB, hiB := s.tieKey(b.ord)
	if ka != kb {
		return ka < kb
	}
	if loA != loB {
		return loA < loB
	}
	return hiA < hiB
}

// tieKey returns what the tie-break reads of ord's page: the materialised
// candidate's group key and interval, or, for a seed not yet visited, its
// group key and one-fragment interval read straight from the index —
// without materialising the path — once, then kept for the seed's later
// ties (a tied seed sifting through the heap meets several).
func (s *searchScratch) tieKey(ord int32) (key string, lo, hi int) {
	if slot := s.slotOf[ord]; slot != 0 {
		c := &s.cands[slot-1]
		return c.gkey, c.lo, c.hi
	}
	if s.tpos[ord] < 0 {
		g := s.refs[ord]
		si := s.shardOf(g)
		key, pos := s.snaps[si].GroupSlot(g - s.base[si])
		s.tkey[ord], s.tpos[ord] = key, int32(pos)
	}
	pos := int(s.tpos[ord])
	return s.tkey[ord], pos, pos
}

// path returns the slot in cands of ord's candidate, materialising it on
// first use: the seed's group path in its shard's snapshot with the
// single-fragment interval, and a mutable copy of its occurrence vector
// (complete: only heap entries are visited). Every ref was read live off a
// posting list or a group path, so GroupPath cannot fail; were it to, the
// error sticks in s.err (which the assembly loop checks before it walks
// any path) and the candidate stays an empty interval.
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
	s.cands = append(s.cands, candidate{members: members, weights: weights, lo: pos, hi: pos, gkey: gkey, shard: si})
	s.candOcc = append(s.candOcc, s.occOf(ord)...)
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

// push adds an entry to the heap, sifts it up and counts the push.
func (s *searchScratch) push(e heapEntry) {
	s.pushes++
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

// ctxCheckInterval is how many units of work — queue visits and postings
// read — the search runs between cooperative ctx.Err() polls. A poll is
// cheap but not free — the standard cancelCtx takes an uncontended mutex
// in Err() — and a visit or a posting is a few nanoseconds, so polling too
// densely shows up on the Fig11 hot band. 1024 keeps the poll below
// measurement noise (BenchmarkSearchContextOverhead pins this) while still
// bounding how far past a cancellation a search can run to microseconds
// of work.
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
// a cancellation mid-search is honored within ctxCheckInterval units of
// work.
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

	// Lines 1-2: the relevant fragments and their single-fragment pages.
	// Without a CandidateLimit they are registered on demand — fill reads
	// blocks in impact order until the head outscores everything unread —
	// each with one queue entry sized from its metadata; unknown TFs and
	// the group path wait until the seed nears the head. With one, the cut
	// needs every posting, so all seeds are queued up front.
	var err error
	if req.CandidateLimit > 0 {
		err = s.seedTop(ctx, req.CandidateLimit)
	} else {
		err = s.open(ctx)
	}
	if err != nil {
		return nil, err
	}

	var out []Result

	// Lines 4-9: assemble pages best-first. A visit to the queue's head
	// either expands a page or retires one; visits and postings read share
	// the cooperative cancellation poll.
	for len(out) < req.K {
		if err := s.fill(ctx); err != nil {
			return nil, err
		}
		if len(s.heap) == 0 {
			break
		}
		if err := s.tick(ctx); err != nil {
			return nil, err
		}
		top := s.heap[0]
		if s.consumed[top.ord] && s.slotOf[top.ord] == 0 {
			// A seed absorbed into an earlier expansion (line 8) before its
			// first visit. (A visited seed is expanded or retired at once.)
			s.popTop()
			continue
		}
		slot := s.path(top.ord)
		if s.err != nil {
			return nil, s.err
		}
		c, occ := &s.cands[slot], s.candOcc[slot*nk:(slot+1)*nk]
		if expandable(c, top.size, req.SizeThreshold) {
			// Expand and reinsert: rewrite the head in place and sift it
			// down.
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

// gainOf returns the weighted occurrence gain of member at of c's group
// path (0 when the fragment carries none of the queried keywords) and its
// dense ordinal (-1 when it is not a candidate). A neighbour no cursor has
// reached yet is probed: if it holds a queried keyword it is registered —
// a seed like any other — and
// otherwise remembered as irrelevant. A registered one still waiting in a
// bucket under a bound has its vector completed. Under CandidateLimit
// nothing is probed: a fragment the cut left out is not a candidate.
func (s *searchScratch) gainOf(c *candidate, at int) (float64, int32) {
	ref := c.members[at]
	g := s.base[c.shard] + ref
	ord := s.ordOf[g] - 1
	switch {
	case ord >= 0:
		s.complete(ord, c.weights[at])
	case ord == -1 && len(s.curs) > 0:
		ord = s.probe(c.shard, ref, g, c.weights[at])
	}
	if ord < 0 {
		return 0, -1
	}
	return weighted(s.occOf(ord), s.idf), ord
}

// probe reads a neighbour's occurrence vector (see tf) and, when any entry
// is non-zero, registers it and queues it under its exact score (if the
// expansion absorbs it, refill drops the entry); it returns the ordinal,
// or -1 (recording the miss) when the fragment holds no queried keyword.
func (s *searchScratch) probe(si int, ref, g fragindex.FragRef, terms int64) int32 {
	s.probeOcc = s.probeOcc[:0]
	hit := false
	for j := range s.keywords {
		tf := s.tf(j, si, ref, terms)
		s.probeOcc = append(s.probeOcc, tf)
		hit = hit || tf > 0
	}
	if !hit {
		s.ordOf[g] = -1
		s.misses = append(s.misses, g)
		return -1
	}
	ord := s.register(g)
	copy(s.occOf(ord), s.probeOcc)
	s.enqueue(heapEntry{score: score(s.probeOcc, terms, s.idf), size: terms, ord: ord}, false)
	return ord
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
	if c.lo > 0 {
		bestGain, bestOrd = s.gainOf(c, c.lo-1)
		bestWeight = c.weights[c.lo-1]
		bestLeft = true
	}
	if c.hi < len(c.members)-1 {
		w := c.weights[c.hi+1]
		gain, ord := s.gainOf(c, c.hi+1)
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
		for i, n := range s.occOf(bestOrd) {
			occ[i] += n
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
