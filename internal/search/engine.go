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
// About half the cache misses settle after pulling a few percent of the
// postings their keywords' lists hold; the rest, whose pages score far
// below their single fragments, switch to one bulk walk. The scoring core
// allocates nothing in steady state. Each query borrows a searchScratch
// holding every transient structure Algorithm 1 needs:
//
//   - Seeds on demand. Posting lists are stored impact-descending (tf
//     over the fragment's total; see fragindex.Cursor), and open makes
//     one cursor per (pinned snapshot, keyword) whose bound — IDF × the
//     impact of its next posting — caps what anything behind it adds to
//     a one-fragment page's score. A fragment no cursor has reached
//     therefore scores at most τ, the sum over keywords of the largest
//     bound, and before every visit of the head fill pulls postings until
//     the head lies strictly above τ (by a few units in the last place,
//     since τ must bound the computed score) or every cursor is
//     exhausted. Such a head is the candLess minimum over all seeds,
//     registered or not, so the loop visits entries in exactly the order
//     a queue over all of them would. A fragment is registered on first
//     sight with its full occurrence vector and pooled once; its other
//     keywords' TFs are 0 where the cursor positions prove it, and are
//     otherwise probed in a dense TF-per-ref table of the keyword, which
//     the first probe fills from the keyword's lists (see tf). An
//     expansion prices a neighbour no cursor has reached the same way.
//     Under CandidateLimit, whose cut needs every posting, seedTop walks
//     the lists, cuts and pools every kept seed up front instead.
//   - Drains. A pull costs several times what a posting of a bulk walk
//     does, and a query whose expanded pages score far below its single
//     fragments does not settle early. Once a search has pulled a quarter
//     of its lists' postings — or at once, when every keyword of a
//     several-keyword query is hot, or when it has more keywords than a
//     scratch keeps TF tables for (maxTables) — drain walks the rest block
//     by block, registers what it finds with no probe, and counting-sorts
//     every seed not yet heaped into score buckets that refill moves into
//     the heap best first.
//   - A two-level queue. Registered seeds wait in a pool ordered by
//     (score, size) alone; one moves into the candLess heap only once it
//     is not strictly worse than the heap's head on those two. So only
//     seeds that can be visited next ever meet the tie-break, which reads
//     group keys, and the heap stays as small as the contested band.
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
// searches read: drains, postings read and tabulated, TF probes, seeds
// registered and queue pushes.
//
// # Cancellation
//
// Every search takes a context.Context first, like every other method on
// the serving path. A context that is already cancelled when Search is
// called returns ctx.Err() before the snapshot is even resolved; a
// cancellation or deadline that arrives mid-search is observed
// cooperatively — ctx.Err() is polled once per keyword while the cursors
// open, then once every ctxCheckInterval queue visits and postings
// pulled, so a runaway query on a hot keyword stops
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
	"math/bits"
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
	if s.drained {
		c.drains.Add(1)
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
	margin    float64              // τ's relative widening (see fill)
	dfSum     int                  // lazy seeding: Σ DF over keywords and the pinned set, what a full walk reads
	eager     bool                 // every keyword is hot: drain before the first pull (see hotDF)
	drained   bool                 // drain ran: the seeds not in heap are in pending
	tabs      [][]uint64           // lazy seeding: per keyword, its stamped TF per global ref once tabulated, else nil
	tabBufs   [][]uint64           // per keyword index, at most maxTables: storage for tabs (see tabulate)
	stamp     uint32               // this search's table stamp; no table entry carries a later one
	refs      []fragindex.FragRef  // candidate global ref per ordinal
	ordOf     []int32              // per global ref: ordinal+1, 0 when unknown, -1 when probed irrelevant
	misses    []fragindex.FragRef  // the global refs probed irrelevant
	used      []bool               // per global ref: in an accepted result
	usedRefs  []fragindex.FragRef  // the global refs set in used
	seedOcc   []int64              // pristine occ vectors, ord-major; all zero past its length
	probeOcc  []int64              // one neighbour's probed occ vector
	fresh     []int32              // ordinals an expansion registered, to pool after it
	heap      []heapEntry          // by-value candLess priority queue over the promoted seeds
	pool      []heapEntry          // registered seeds not yet promoted, a heap by (score, size) only
	pending   []heapEntry          // after a drain: the seeds not yet in heap, by score bucket, best first
	queued    int                  // pending[:queued] have entered heap
	minBits   uint64               // smallest pending score's bit pattern
	shift     uint                 // bucket = (score bits - minBits) >> shift
	one       [1]fragindex.Posting // drain's view of a cursor's head as a block
	slotOf    []int32              // per ordinal: index+1 into cands, 0 when not materialised
	tkey      []string             // per ordinal: the group key, once an exact tie has read it
	tpos      []int32              // per ordinal: the path position read with tkey, -1 before
	consumed  []bool               // per ordinal: absorbed by expansion
	cands     []candidate          // materialised candidates, in first-use order
	candOcc   []int64              // their expansion-mutated occ vectors, slot-major
	seen      map[uint64]struct{}  // emitted page signatures (global refs)
	work      int                  // queue visits plus postings pulled: paces the ctx polls
	postings  int                  // this search's seeding counts (see SeedStats)
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
	s.fresh = s.fresh[:0]
	s.heap, s.pool = s.heap[:0], s.pool[:0]
	s.slotOf, s.consumed = s.slotOf[:0], s.consumed[:0]
	clear(s.tkey)
	s.tkey, s.tpos = s.tkey[:0], s.tpos[:0]
	s.cands = s.cands[:0]
	s.candOcc = s.candOcc[:0]
	clear(s.tabs)
	s.tabs = s.tabs[:0]
	s.pending, s.queued = s.pending[:0], 0
	s.work, s.postings, s.tabulated, s.probes, s.pushes, s.dfSum = 0, 0, 0, 0, 0, 0
	s.eager, s.drained = false, false
}

// tick counts one unit of work — a queue visit or a posting pulled — and
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
// pinned snapshot), records each keyword's IDF, 1/ΣDF, and primes every
// cursor with its first posting. No posting past the first is read here;
// fill pulls the rest as the queue needs them.
func (s *searchScratch) open(ctx context.Context) error {
	nk, ns := len(s.keywords), len(s.snaps)
	// The score and τ sums each round at most nk+1 times (nk products or
	// quotients and nk-1 additions, then a division or none), so a
	// relative 2(nk+1) units in the last place bounds their disagreement;
	// twice that, plus slack for widening τ itself, is the margin.
	s.margin = float64(4*nk+16) * 0x1p-53
	s.eager = nk >= 2
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
		s.idf, s.dfSum = append(s.idf, idfOf(df)), s.dfSum+df
		s.eager = s.eager && df >= hotDF
		for ci := i * ns; ci < (i+1)*ns; ci++ {
			s.advance(ci)
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

// fill pulls seeds until the queue's head strictly outscores every seed
// not yet registered, or every cursor is exhausted. A fragment no cursor
// has reached has each of its postings at or behind its list's cursor, so
// its score is at most τ = Σ_w max over shards of the cursor bounds; the
// head must lie strictly above τ, because on an equal score the tie-break
// (size, group key, path position) decides, and above it by a few units
// in the last place (margin), because τ must bound the *computed* score,
// which rounds differently from τ's own sum. Such a head is the candLess
// minimum over all seeds, registered or not, so the loop visits exactly
// what a queue holding every seed from the start would. fill runs before
// every visit: expansion rewrites the head in place and can move its
// score either way. Each round first promotes the pool's contenders, so
// the head it tests is the best registered seed. Each pull advances the
// cursor with the largest bound, the one that lowers τ most; a search that
// has pulled too much, whose keywords are all hot, or whose probes would
// need more tables than a scratch keeps, drains instead (see drainRatio).
func (s *searchScratch) fill(ctx context.Context) error {
	ns, batch := len(s.snaps), 1
	for {
		s.promote()
		s.refill()
		if len(s.curs) == 0 {
			return nil // CandidateLimit pooled every seed up front
		}
		tau, next, nextBound := 0.0, -1, 0.0
		for i := range s.keywords {
			top := 0.0
			for ci := i * ns; ci < (i+1)*ns; ci++ {
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
		if next < 0 || len(s.heap) > 0 && s.heap[0].score > tau+tau*s.margin {
			return nil
		}
		if s.eager || s.postings*drainRatio > s.dfSum || len(s.keywords) > maxTables {
			if err := s.drain(ctx); err != nil {
				return err
			}
			continue
		}
		for n := batch; n > 0 && !s.curs[next].done; n-- {
			if err := s.tick(ctx); err != nil {
				return err
			}
			s.pull(next)
		}
		batch = min(2*batch, maxBatch)
	}
}

// drainRatio and hotDF decide when pulling stops paying. A pull costs
// several times what a posting of a bulk walk does — the bound, TF
// probes, a queue push — and the bound settles most queries within a small
// share of their lists. A query whose expanded pages score far below its
// single fragments does not settle: hot keywords only, or a rare keyword
// whose few pages leave K to fill from a hot one. Pulling most of its
// lists one posting at a time would cost it up to twice what a bulk walk
// does (measured on small/Q2's heaviest queries), so once a search has
// pulled 1/drainRatio of its lists' postings, drain reads the rest in one
// pass; and a query of several keywords that are all hot — each in at
// least hotDF fragments of the pinned set — drains before its first pull.
// The early drain is what keeps the slowest misses near a bulk walk's
// cost: on replica_ryw, whose serial misses find cold caches, it cut the
// search p95 from +24 % to +8 % over an engine that walked every list
// (lower in 10 of 10 alternating pairs), and it moved search_uncached's
// cpu_ms_per_op by under 2 % (two batches of 10 pairs, one each way).
const (
	drainRatio = 4
	hotDF      = 1000
)

// drain reads every posting still behind the cursors, block by block,
// registers every live fragment they hold that is not registered yet, and
// hands every seed not in the heap — the pool's and the new ones — to
// bucketSeeds. A fragment no cursor had reached has all its postings behind
// the cursors, so its occurrence vector comes whole from the walk, with no
// probe; one registered before the drain is complete already. Afterwards
// every cursor is exhausted, so fill pulls nothing more, no probe looks up
// a table or registers a seed, and refill orders what is left. The ctx is
// polled once per cursor, as open polls once per keyword.
func (s *searchScratch) drain(ctx context.Context) error {
	ns, nk, first, pooled := len(s.snaps), len(s.keywords), int32(len(s.refs)), len(s.pool)
	for ci := range s.curs {
		c := &s.curs[ci]
		if c.done {
			continue
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		i, si := ci/ns, ci%ns
		snap, base := s.snaps[si], s.base[si]
		s.one[0] = c.head
		for ps := s.one[:]; ps != nil; ps = c.c.Block() {
			s.postings += len(ps)
			for _, p := range ps {
				g := base + p.Frag
				ord := s.ordOf[g] - 1
				if ord == -1 {
					if !snap.AliveRef(p.Frag) {
						continue
					}
					ord = s.register(g)
					s.pool = append(s.pool, heapEntry{size: snap.TermsOf(p.Frag), ord: ord})
				} else if ord < first {
					continue // registered before the drain: its vector is complete
				}
				s.seedOcc[int(ord)*nk+i] = int64(p.TF)
			}
		}
		s.postings-- // advance counted the head
		*c = cursor{done: true}
	}
	minBits, maxBits := uint64(math.MaxUint64), uint64(0)
	for k := range s.pool {
		h := &s.pool[k]
		if k >= pooled {
			h.score = score(s.occOf(h.ord), h.size, s.idf)
		}
		b := math.Float64bits(h.score)
		minBits, maxBits = min(minBits, b), max(maxBits, b)
	}
	s.pushes += len(s.pool) - pooled
	s.bucketSeeds(minBits, maxBits)
	s.drained = true
	return nil
}

// The seeds a drain leaves are counting-sorted into at most numBuckets
// score buckets: a full walk registers every fragment of the lists, most of
// which never reach the head, and a bucket costs them two passes where a
// heap would cost each a sift. (Heapifying them into the pool instead, in
// one O(n) pass, then sifting each promotion out of it, left small/Q2's
// miss mix a quarter slower at the 99th percentile.)
const (
	bucketBits = 8
	numBuckets = 1 << bucketBits
)

// bucketOf maps a score to its bucket, 0 (the worst) up: scores are
// non-negative and finite, and such floats order like their bit patterns.
// A seed lands in [0, numBuckets); a head that expansion rewrote below
// every pending score lands in bucket 0.
func (s *searchScratch) bucketOf(score float64) uint64 {
	b := math.Float64bits(score)
	if b < s.minBits {
		return 0
	}
	return (b - s.minBits) >> s.shift
}

// bucketSeeds moves the pool, in no order once a drain rewrote it, into
// s.pending with one counting sort: grouped by bucket, best bucket first,
// buckets splitting [minBits, maxBits] evenly, and no more of them than
// seeds (rounded up to a power of two).
func (s *searchScratch) bucketSeeds(minBits, maxBits uint64) {
	nb := min(bucketBits, bits.Len(uint(len(s.pool))))
	s.minBits = minBits
	s.shift = uint(max(0, bits.Len64(maxBits-minBits)-nb))
	var next [numBuckets]int32 // per bucket: its seed count, then its next free slot
	for i := range s.pool {
		next[s.bucketOf(s.pool[i].score)]++
	}
	at := int32(0)
	for b := 1<<nb - 1; b >= 0; b-- {
		next[b], at = at, at+next[b]
	}
	s.pending = slices.Grow(s.pending[:0], len(s.pool))[:len(s.pool)]
	for _, e := range s.pool {
		b := s.bucketOf(e.score)
		s.pending[next[b]] = e
		next[b]++
	}
	s.pool, s.queued = s.pool[:0], 0
}

// refill moves pending buckets into the heap, best first, until the head's
// bucket lies above the next pending one: the head then strictly outscores
// every seed still pending, so it is the candLess minimum over all seeds.
// A seed an expansion absorbed is dropped on the way.
func (s *searchScratch) refill() {
	for s.queued < len(s.pending) {
		b := s.bucketOf(s.pending[s.queued].score)
		if len(s.heap) > 0 && s.bucketOf(s.heap[0].score) > b {
			return
		}
		for ; s.queued < len(s.pending) && s.bucketOf(s.pending[s.queued].score) == b; s.queued++ {
			if e := s.pending[s.queued]; !s.consumed[e.ord] {
				s.push(e)
			}
		}
	}
}

// maxBatch caps how many postings fill pulls from one cursor between two
// tests of the bound. Each round that leaves the head at or below τ
// doubles the batch, so a query that must read deep into its lists
// recomputes τ and promotes once per batch, not once per posting, while
// one that settles after a few pulls reads at most about twice what it
// needs.
const maxBatch = 64

// pull takes cursor ci's head posting and advances the cursor. A fragment
// seen for the first time is registered with its full occurrence vector —
// the posting's TF plus one probe per other keyword — and pooled once; a
// fragment already registered (seen on another keyword's list, or probed
// as a neighbour) adds nothing.
func (s *searchScratch) pull(ci int) {
	ns := len(s.snaps)
	i, si := ci/ns, ci%ns
	p, terms := s.curs[ci].head, s.curs[ci].terms
	s.advance(ci)
	g := s.base[si] + p.Frag
	if s.ordOf[g] != 0 {
		return
	}
	ord := s.register(g)
	occ := s.occOf(ord)
	occ[i] = int64(p.TF)
	for j := range s.keywords {
		if j != i {
			occ[j] = s.tf(j, si, p.Frag, terms)
		}
	}
	s.queue(heapEntry{score: score(occ, terms, s.idf), size: terms, ord: ord})
}

// tf returns keyword j's TF in an unregistered fragment ref of pinned
// snapshot si whose total is terms. A fragment no cursor has reached that
// holds j has its posting at or behind cursor (j, si), at impact at least
// 1/terms; so when that cursor is exhausted, or its head's impact is
// already below 1/terms (compared exactly, as head.TF × terms <
// head.terms), the TF is 0 without a look. Otherwise it probes j's table,
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
	if c := &s.curs[j*len(s.snaps)+si]; c.done || terms > 0 && int64(c.head.TF)*terms < c.terms {
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
// beside the 5 B per ref of ordOf and used. A query of more keywords
// drains before its first pull (see fill), so no probe of it looks a table
// up, and a scratch never holds more than maxTables of them, however many
// keywords the queries it served carried. The search_uncached mix has at
// most three.
const maxTables = 4

// tabulate copies keyword j's TF per global ref over the pinned set into a
// dense table, which answers j's probes, and returns it. Each entry
// carries the search's stamp above its TF, so an entry an earlier search
// wrote reads as 0 and no table is ever cleared; the stamps restart, and
// the tables are cleared, once in 2³² searches. Tombstoned postings are
// copied too: only live refs are ever probed. Its postings count as
// tabulated, not as pulled.
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

// seedTop is Algorithm 1's line 1 under CandidateLimit: for each keyword it
// walks every live posting of the pinned set, keeps the limit that sort
// highest by (TF descending, fragment identifier ascending) — the paper's
// partial inverted-list read (§II), exactly as a single index over the
// union reads it — and seeds them. Occurrence vectors hold only what the
// kept postings carry, and expansion probes nothing, so the cut means
// what it always has. The seeds are scored and pooled once every IDF is
// known. The ctx is polled once per keyword.
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
				s.pool = append(s.pool, heapEntry{size: e.terms, ord: ord})
			}
			s.occOf(ord)[i] += int64(e.p.TF)
		}
		clear(s.band)
		s.band = s.band[:0]
	}
	for j := range s.pool {
		h := &s.pool[j]
		h.score = score(s.occOf(h.ord), h.size, s.idf)
	}
	for j := len(s.pool)/2 - 1; j >= 0; j-- {
		s.poolDown(j)
	}
	s.pushes += len(s.pool)
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
// single-fragment interval, and a mutable copy of its occurrence vector.
// Every ref was read live off a posting list or a group path, so GroupPath
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

// poolLess orders the pool: best score first, then smaller size. Unlike
// candLess it never reads a tie key.
func poolLess(a, b heapEntry) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	return a.size < b.size
}

// queue adds a registered seed and counts the push: into the heap when it
// is not strictly worse than the head on (score, size) — promote would
// move it there before the next visit anyway — and into the pool
// otherwise.
func (s *searchScratch) queue(e heapEntry) {
	s.pushes++
	if len(s.heap) > 0 && poolLess(s.heap[0], e) {
		s.poolPush(e)
	} else {
		s.push(e)
	}
}

// poolPush adds a registered seed to the pool.
func (s *searchScratch) poolPush(e heapEntry) {
	s.pool = append(s.pool, e)
	h := s.pool
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !poolLess(e, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
}

// poolDown restores the pool's heap order below position i — popping its
// best and the up-front heapify of seedTop share it.
func (s *searchScratch) poolDown(i int) {
	h := s.pool
	e := h[i]
	for {
		child := 2*i + 1
		if child >= len(h) {
			break
		}
		if r := child + 1; r < len(h) && poolLess(h[r], h[child]) {
			child = r
		}
		if !poolLess(h[child], e) {
			break
		}
		h[i] = h[child]
		i = child
	}
	h[i] = e
}

// promote moves pool seeds into the heap until the pool's best is strictly
// worse than the heap's head on (score, size) — so the head is the candLess
// minimum over both — dropping seeds an expansion absorbed on the way.
func (s *searchScratch) promote() {
	for len(s.pool) > 0 {
		e := s.pool[0]
		if !s.consumed[e.ord] && len(s.heap) > 0 && poolLess(s.heap[0], e) {
			return
		}
		n := len(s.pool) - 1
		s.pool[0] = s.pool[n]
		s.pool = s.pool[:n]
		if n > 1 {
			s.poolDown(0)
		}
		if !s.consumed[e.ord] {
			s.push(e)
		}
	}
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

// pushFresh pools the seeds the last expansion registered by probing; a
// seed the expansion absorbed is left out — its entry would only be
// dropped.
func (s *searchScratch) pushFresh() {
	for _, ord := range s.fresh {
		if !s.consumed[ord] {
			s.queue(heapEntry{score: score(s.occOf(ord), s.sizeOf(ord), s.idf), size: s.sizeOf(ord), ord: ord})
		}
	}
	s.fresh = s.fresh[:0]
}

// sizeOf returns ordinal ord's fragment total.
func (s *searchScratch) sizeOf(ord int32) int64 {
	g := s.refs[ord]
	si := s.shardOf(g)
	return s.snaps[si].TermsOf(g - s.base[si])
}

// ctxCheckInterval is how many units of work — queue visits and postings
// pulled — the search runs between cooperative ctx.Err() polls. A poll is
// cheap but not free — the standard cancelCtx takes an uncontended mutex
// in Err() — and a visit or a pull is a few nanoseconds, so polling too
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
	// Without a CandidateLimit they are registered on demand — fill pulls
	// postings in impact order until the head outscores everything unread
	// — each with its full occurrence vector and one queue entry sized from
	// its metadata; the group path waits until the page is visited. With
	// one, the cut needs every posting, so all seeds are pooled up front.
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
	// either expands a page or retires one; visits and pulls share the
	// cooperative cancellation poll.
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
			// Expand and reinsert: rewrite the head in place, sift it down,
			// then queue any neighbour the expansion registered.
			size := top.size + s.expand(c, occ)
			s.heap[0].size, s.heap[0].score = size, score(occ, size, s.idf)
			s.siftDown(0)
			s.pushFresh()
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
// a seed like any other, queued by pushFresh after the expansion — and
// otherwise remembered as irrelevant. Under CandidateLimit nothing is
// probed: a fragment the cut left out is not a candidate.
func (s *searchScratch) gainOf(c *candidate, at int) (float64, int32) {
	ref := c.members[at]
	g := s.base[c.shard] + ref
	ord := s.ordOf[g] - 1
	if ord == -1 && len(s.curs) > 0 {
		ord = s.probe(c.shard, ref, g, c.weights[at])
	}
	if ord < 0 {
		return 0, -1
	}
	return weighted(s.occOf(ord), s.idf), ord
}

// probe reads a neighbour's occurrence vector (see tf) and registers it
// when any entry is non-zero; it returns the ordinal, or -1 (recording the
// miss) when the fragment holds no queried keyword.
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
	s.fresh = append(s.fresh, ord)
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
