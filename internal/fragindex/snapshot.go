package fragindex

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/fragment"
	"repro/internal/relation"
)

// Posting lists are grouped into a fixed number of hash shards. The shard is
// the copy-on-write unit of the posting directory between snapshots:
// publishing a new snapshot clones only the shards (and within them, only
// the posting-list headers, block directories and blocks) the delta
// touched, so untouched shards — the overwhelming majority of index memory
// — are shared by pointer across every live snapshot. An 8-change apply on
// the Q2 corpus touches a few hundred keywords and so dirties most of the
// 256 shards; each shard clone copies its list pointers and shares its
// keys (see sortedDir) rather than a map clone that re-hashes every key.
// Those clones cost ≈ 60 KB an apply, after the posting blocks and
// metadata chunks it writes.
const numShards = 256 // power of two; shardIndex masks with numShards-1

// Equality keys hash into their own shard table, mapping each key to its
// group's id (see groupPage): the directory changes only when a group is
// created, and then clones one small bucket instead of the whole
// directory.
const numGroupShards = 512 // power of two

// sortedDir is one hash bucket of a string-keyed directory — a posting
// shard (keyword → list) or a group shard (equality key → group id): its
// keys in ascending order, with each key's value in the parallel vals
// slice. Sorted slices instead of a map make the bucket's copy-on-write
// clone one memmove — cloning a map re-hashes every key — at the price of
// a binary search per lookup. gen stamps the builder generation that
// allocated the bucket (see Index.gen).
type sortedDir[V any] struct {
	keys []string
	vals []V
	gen  uint64
}

// shard is one hash bucket of the inverted fragment index.
type shard = sortedDir[*postingList]

// groupShard is one hash bucket of the equality-group directory.
type groupShard = sortedDir[int32]

// find returns key's position in the bucket (where it would be inserted
// when absent) and whether it is present.
func (d *sortedDir[V]) find(key string) (int, bool) { return slices.BinarySearch(d.keys, key) }

// get returns key's value, the zero V when absent.
func (d *sortedDir[V]) get(key string) V {
	if i, ok := d.find(key); ok {
		return d.vals[i]
	}
	var zero V
	return zero
}

// insertAt places key's value at position i (from find). A clone's keys
// are shared and capped at their length, so inserting reallocates them.
func (d *sortedDir[V]) insertAt(i int, key string, v V) {
	d.keys = slices.Insert(d.keys, i, key)
	d.vals = slices.Insert(d.vals, i, v)
}

// deleteAt drops the key at position i, copying the keys first: a clone
// shares them with the bucket it was cloned from.
func (d *sortedDir[V]) deleteAt(i int) {
	d.keys = append(d.keys[:i:i], d.keys[i+1:]...)
	d.vals = slices.Delete(d.vals, i, i+1)
}

// put adds key's value at its sorted position; it reports false, changing
// nothing, when key is already present. Adding keys in ascending order
// appends, at O(log n) each.
func (d *sortedDir[V]) put(key string, v V) bool {
	i, ok := d.find(key)
	if !ok {
		d.insertAt(i, key, v)
	}
	return !ok
}

// clone copies the bucket's values, with room for one new key so the
// insert that may follow does not reallocate them again, and shares its
// keys, capped at their length: most clones only repoint a value, and the
// keys — 16 bytes each — are the larger half of a bucket. A clone keeps
// every key's position and is stamped gen.
func (d *sortedDir[V]) clone(gen uint64) *sortedDir[V] {
	return &sortedDir[V]{
		keys: d.keys[:len(d.keys):len(d.keys)],
		vals: append(make([]V, 0, len(d.vals)+1), d.vals...),
		gen:  gen,
	}
}

// writableDir returns the bucket in *slot ready for in-place mutation,
// cloning it into the slot unless generation gen allocated it; cloned
// reports whether it did.
func writableDir[V any](slot **sortedDir[V], gen uint64) (d *sortedDir[V], cloned bool) {
	if d = *slot; d.gen != gen {
		d, cloned = d.clone(gen), true
		*slot = d
	}
	return d, cloned
}

// fnv32 hashes a string with FNV-1a.
func fnv32(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}

// shardIndex hashes a keyword to its posting shard.
func shardIndex(kw string) uint32 { return fnv32(kw) & (numShards - 1) }

// groupShardIndex hashes an equality key to its group shard.
func groupShardIndex(key string) uint32 { return fnv32(key) & (numGroupShards - 1) }

func newShards() []*shard {
	out := make([]*shard, numShards)
	for i := range out {
		out[i] = &shard{}
	}
	return out
}

func newGroupShards() []*groupShard {
	out := make([]*groupShard, numGroupShards)
	for i := range out {
		out[i] = &groupShard{}
	}
	return out
}

// Fragment metadata is stored in fixed-size chunks of chunkSize refs behind
// a chunk-pointer table. The chunk is the metadata copy-on-write unit:
// publishing a new snapshot copies only the chunks a delta dirtied, so a
// single-fragment change on a million-ref index does not pay an O(refs)
// metadata copy per publish. A chunk holds ≈ 72 B of metadata per ref, so
// a 256-ref chunk clones ≈ 18 KB, and an update dirties two chunks (the
// old ref's and the append tail).
//
// The chunk table is itself paged: page p holds the pointers of chunks
// [p<<pageShift, (p+1)<<pageShift), 65 536 refs' worth. The first page
// lives inline in the Snapshot, so a clone copies it with the struct and
// the read path of an index that fits in it (the Q2 corpus has ≈ 10 000
// refs) loads a chunk pointer straight from the Snapshot, as from a flat
// table. Each later page is shared until a publish replaces one of its
// chunks, so no part of a publish grows with the ref count: a flat table
// of 256-ref chunks would copy ≈ 31 KB of pointers per publish at a
// million refs.
const (
	chunkShift = 8
	chunkSize  = 1 << chunkShift // refs per metadata chunk
	chunkMask  = chunkSize - 1

	pageShift = 8
	pageSize  = 1 << pageShift // chunk pointers per page of the chunk table
	pageMask  = pageSize - 1
)

// page is one page of a paged table — the chunk table or the group table:
// pageSize slots in a fixed-size array, so the masked index into it needs
// no bounds check on the read path, stamped with the builder generation
// that allocated it (see Index.gen).
type page[T any] struct {
	slots [pageSize]*T
	gen   uint64
}

// writablePage returns the slots of the page in *slot ready for in-place
// mutation, copying the page into the slot unless generation gen
// allocated it.
func writablePage[T any](slot **page[T], gen uint64) *[pageSize]*T {
	if p := *slot; p.gen != gen {
		c := *p
		c.gen = gen
		*slot = &c
	}
	return &(*slot).slots
}

// chunkPage is one later page of the chunk table: chunks
// [p<<pageShift, (p+1)<<pageShift) for p ≥ 1.
type chunkPage = page[metaChunk]

// groupPage is one page of the group table: the groups with ids
// [p<<pageShift, (p+1)<<pageShift). A group's id is dense and never
// changes, so a chunk names a ref's group by id and a group clone
// replaces one slot of one page — no member's chunk. A publish copies the
// table of pages (one pointer per 256 groups) and the pages it writes.
type groupPage = page[group]

// metaChunk holds chunkSize refs' worth of the per-ref metadata arrays, in
// parallel: the fragment summary, its total keyword count again as an
// int32 (a compact copy the posting cursors read, ≈ 40 KB on the Q2 corpus
// where the summaries take a megabyte), the builder-side forward keyword
// map, the equality-group id, and the position within the group (-1 when
// dead). Only an insert or removal in a group shifts positions, so only
// those rewrite other members' chunks; an update keeps its slot. gen
// stamps the builder generation that allocated the chunk. The cursors read
// totals and liveness off the compact columns because reading them off
// the summaries raised replica_ryw's search p95, whose serial misses find
// cold caches, from +24 % to +38 % over an engine that walked every list
// (higher in 10 of 10 alternating pairs).
type metaChunk struct {
	frags    []Meta
	tot      []int32
	kwOf     [][]string
	groupOf  []int32
	memberAt []int32
	gen      uint64
}

// clone returns a deep copy of the chunk's arrays, stamped gen (slice
// contents such as keyword strings stay shared — they are immutable per
// ref). A full chunk is copied exactly; the tail chunk, the only one refs
// are appended to, gets the headroom a copied posting list gets, so the
// appends of the publish that cloned it do not reallocate its arrays a
// second time.
func (c *metaChunk) clone(gen uint64) *metaChunk {
	n := min(grownCap(len(c.frags)), chunkSize)
	return &metaChunk{
		frags:    append(make([]Meta, 0, n), c.frags...),
		tot:      append(make([]int32, 0, n), c.tot...),
		kwOf:     append(make([][]string, 0, n), c.kwOf...),
		groupOf:  append(make([]int32, 0, n), c.groupOf...),
		memberAt: append(make([]int32, 0, n), c.memberAt...),
		gen:      gen,
	}
}

// Snapshot is one immutable version of the fragment index: the inverted
// fragment index (sharded posting lists), the fragment graph, and the O(1)
// statistics counters, all frozen at a mutation epoch.
//
// A Snapshot obtained from LiveIndex.Snapshot (or Index.Freeze) never
// changes: any number of goroutines may run the entire query read path
// against it lock-free, concurrently with a writer publishing later
// snapshots. The only internally mutable field is the lazily built sorted
// keyword cache, which is swapped through an atomic pointer and is
// idempotent to race on.
//
// Every per-ref structure is behind a copy-on-write table so publishing a
// new version costs only what the delta touched: fragment metadata lives in
// fixed-size chunks behind a chunk-pointer table (the chunk is the metadata
// CoW unit — see metaChunk), posting lists hash into shards, equality
// groups live in a paged table by id (see groupPage), and their keys hash
// into their own shard table. Untouched chunks, shards, lists, pages and
// groups are shared by pointer across every live snapshot.
//
// A Snapshot obtained from Index.Snapshot on an index that has never been
// frozen is a live view, not an isolated version: it shares the index's
// storage and observes its mutations, under the index's exclusive-mutation
// contract.
type Snapshot struct {
	spec     Spec
	eqIdx    []int
	rangeIdx int

	numRefs int                  // ref-space size; chunk i holds refs [i<<chunkShift, ...)
	page0   [pageSize]*metaChunk // chunks [0, pageSize), inline: read without a page load
	pages   []*chunkPage         // the chunk table's later pages: chunks pageSize on
	shards  []*shard             // inverted index posting shards
	gshards []*groupShard
	gpages  []*groupPage // the group table: page p holds ids p<<pageShift on
	ngroups int

	// gen stamps the builder generation that allocated the struct and its
	// tables, page0 included (see Index.gen).
	gen uint64

	// Live counters: maintained on insert/remove so the Table IV stats
	// (NumFragments, AvgTermsPerFragment, NumKeywords) are O(1).
	liveFrags int
	liveTerms int64
	liveKws   int

	// epoch counts mutations; kwCache holds the sorted Keywords() slice
	// built at a given epoch (atomic so concurrent readers may refresh it).
	epoch   uint64
	kwCache atomic.Pointer[kwCache]
}

// clone returns a copy stamped gen sharing every later chunk-table page,
// posting shard, group shard and group page with the receiver. Only the
// top-level tables are copied — the inline first page, the later-page
// table (O(refs/65 536)), the group-page table (O(groups/256)) and two
// fixed-size shard tables — so publish cost is proportional to what the
// delta then dirties. The payloads (later pages, chunks, posting lists,
// group pages, groups) are cloned lazily, one by one, only where mutations
// touch them.
func (s *Snapshot) clone(gen uint64) *Snapshot {
	return &Snapshot{
		gen:       gen,
		spec:      s.spec,
		eqIdx:     s.eqIdx,
		rangeIdx:  s.rangeIdx,
		numRefs:   s.numRefs,
		page0:     s.page0,
		pages:     append([]*chunkPage(nil), s.pages...),
		shards:    append([]*shard(nil), s.shards...),
		gshards:   append([]*groupShard(nil), s.gshards...),
		gpages:    append([]*groupPage(nil), s.gpages...),
		ngroups:   s.ngroups,
		liveFrags: s.liveFrags,
		liveTerms: s.liveTerms,
		liveKws:   s.liveKws,
		epoch:     s.epoch,
	}
}

// chunkAt returns metadata chunk ci.
func (s *Snapshot) chunkAt(ci int) *metaChunk {
	if ci < pageSize {
		return s.page0[ci]
	}
	return s.pages[ci>>pageShift-1].slots[ci&pageMask]
}

// chunkOf returns the metadata chunk holding ref, without bounds checking.
func (s *Snapshot) chunkOf(ref FragRef) *metaChunk { return s.chunkAt(int(ref) >> chunkShift) }

// numChunks returns the number of metadata chunks.
func (s *Snapshot) numChunks() int { return (s.numRefs + chunkMask) >> chunkShift }

// metaAt returns a pointer to ref's summary without bounds checking.
func (s *Snapshot) metaAt(ref FragRef) *Meta {
	return &s.chunkOf(ref).frags[ref&chunkMask]
}

// aliveAt reports ref's liveness without bounds checking, off the compact
// group-position column (-1 exactly when the ref is tombstoned) rather
// than the summary, whose stride is many times larger: the posting cursors
// check it per posting on a list with tombstones.
func (s *Snapshot) aliveAt(ref FragRef) bool {
	return s.chunkOf(ref).memberAt[ref&chunkMask] >= 0
}

// kwsAt returns ref's forward keyword list without bounds checking.
func (s *Snapshot) kwsAt(ref FragRef) []string {
	return s.chunkOf(ref).kwOf[ref&chunkMask]
}

// group returns the group with id gid without bounds checking.
func (s *Snapshot) group(gid int32) *group { return s.gpages[gid>>pageShift].slots[gid&pageMask] }

// gidAt returns ref's equality-group id without bounds checking.
func (s *Snapshot) gidAt(ref FragRef) int32 { return s.chunkOf(ref).groupOf[ref&chunkMask] }

// posAt returns ref's position within its group (-1 when dead) without
// bounds checking.
func (s *Snapshot) posAt(ref FragRef) int {
	return int(s.chunkOf(ref).memberAt[ref&chunkMask])
}

// Snapshot returns the receiver, making *Snapshot a search.Source: an
// engine constructed over a snapshot is permanently pinned to it.
func (s *Snapshot) Snapshot() *Snapshot { return s }

// list returns the keyword's posting list, nil when absent.
func (s *Snapshot) list(kw string) *postingList {
	return s.shards[shardIndex(kw)].get(kw)
}

// eachList visits every posting list (any order).
func (s *Snapshot) eachList(f func(kw string, pl *postingList)) {
	for _, sh := range s.shards {
		for i, kw := range sh.keys {
			f(kw, sh.vals[i])
		}
	}
}

// eachGroup visits every equality group (any order), including groups whose
// member path is currently empty.
func (s *Snapshot) eachGroup(f func(g *group)) {
	for gid := 0; gid < s.ngroups; gid++ {
		f(s.group(int32(gid)))
	}
}

// Spec returns the snapshot's selection-attribute structure.
func (s *Snapshot) Spec() Spec { return s.spec }

// Epoch returns the mutation epoch the snapshot was frozen at.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// NumFragments returns the number of live fragments (O(1)).
func (s *Snapshot) NumFragments() int { return s.liveFrags }

// NumKeywords returns the number of distinct indexed keywords with at
// least one live posting (O(1)).
func (s *Snapshot) NumKeywords() int { return s.liveKws }

// AvgTermsPerFragment reports the average keyword count over live fragments
// (Table IV's third column). O(1).
func (s *Snapshot) AvgTermsPerFragment() float64 {
	if s.liveFrags == 0 {
		return 0
	}
	return float64(s.liveTerms) / float64(s.liveFrags)
}

// Meta returns a fragment's summary.
func (s *Snapshot) Meta(ref FragRef) (Meta, error) {
	if int(ref) < 0 || int(ref) >= s.numRefs {
		return Meta{}, fmt.Errorf("%w: ref %d", ErrNoFragment, ref)
	}
	return *s.metaAt(ref), nil
}

// NumRefs returns the size of the ref space (live fragments plus
// tombstones): every FragRef handed out by this snapshot is in [0, NumRefs).
// Callers that validate refs once against it may then use the unchecked
// accessors TermsOf and AliveRef on the hot path.
func (s *Snapshot) NumRefs() int { return s.numRefs }

// TermsOf returns a fragment's total keyword count without bounds
// checking. The caller must have validated ref (see NumRefs).
func (s *Snapshot) TermsOf(ref FragRef) int64 {
	return int64(s.chunkOf(ref).tot[ref&chunkMask])
}

// AliveRef reports whether ref is within range and not tombstoned.
func (s *Snapshot) AliveRef(ref FragRef) bool {
	return int(ref) >= 0 && int(ref) < s.numRefs && s.aliveAt(ref)
}

// Lookup resolves a fragment identifier to its ref: the identifier's
// equality values locate the group, and a binary search over the group's
// range-ordered member path locates the fragment. Only live fragments
// resolve. (There is deliberately no whole-index key map: it would have to
// be copied on every publish, defeating the chunked metadata CoW.)
func (s *Snapshot) Lookup(id fragment.ID) (FragRef, bool) {
	if len(id) != len(s.spec.SelAttrs) {
		return 0, false
	}
	g := s.lookupGroup(id)
	if g == nil {
		return 0, false
	}
	if s.rangeIdx < 0 {
		for _, ref := range g.members {
			if s.metaAt(ref).ID.Compare(id) == 0 {
				return ref, true
			}
		}
		return 0, false
	}
	rv := id[s.rangeIdx]
	pos := sort.Search(len(g.members), func(i int) bool {
		return s.rangeValOf(g.members[i]).Compare(rv) >= 0
	})
	for ; pos < len(g.members) && s.rangeValOf(g.members[pos]).Compare(rv) == 0; pos++ {
		if s.metaAt(g.members[pos]).ID.Compare(id) == 0 {
			return g.members[pos], true
		}
	}
	return 0, false
}

// lookupGroup locates the equality group an identifier belongs to, nil when
// absent.
func (s *Snapshot) lookupGroup(id fragment.ID) *group {
	eq := make([]relation.Value, len(s.eqIdx))
	for i, j := range s.eqIdx {
		eq[i] = id[j]
	}
	key := relation.Key(eq)
	gs := s.gshards[groupShardIndex(key)]
	if i, ok := gs.find(key); ok {
		return s.group(gs.vals[i])
	}
	return nil
}

// Has reports whether a live fragment with the given identifier exists.
func (s *Snapshot) Has(id fragment.ID) bool {
	_, ok := s.Lookup(id)
	return ok
}

// Postings returns the live postings of a keyword in stored order: impact
// (TF over the fragment's total) descending, then identifier ascending —
// not the canonical (TF descending) order of a Dump. The returned slice
// must not be modified. A list of one block without
// tombstones is returned by reference without scanning; any other list is
// gathered into a fresh slice (see PostingsIDF to reuse one).
func (s *Snapshot) Postings(keyword string) []Posting {
	ps, _ := s.PostingsIDF(keyword, nil)
	return ps
}

// DF returns the document frequency of a keyword: the number of live
// fragments containing it. O(1): each list counts its own tombstones.
func (s *Snapshot) DF(keyword string) int {
	pl := s.list(keyword)
	if pl == nil {
		return 0
	}
	return pl.liveDF()
}

// IDF returns the keyword's inverse document frequency, Dash's 1/DF
// approximation (§VI). The value is precomputed when the list mutates, so
// query scoring reads it in O(1).
func (s *Snapshot) IDF(keyword string) float64 {
	pl := s.list(keyword)
	if pl == nil {
		return 0
	}
	return pl.idf
}

// PostingsIDF returns Postings(keyword) and IDF(keyword) with a single list
// lookup, postings in stored order (see Postings). The search engine does
// not gather lists; it walks them in place (see Cursor). A clean list of
// one block is the snapshot's own block, returned by reference; it must not
// be modified. Any other list — several blocks, or tombstones — is
// concatenated, tombstones filtered out, into *buf's storage (overwritten
// from its start, grown when too small) when buf is non-nil, and the
// result aliases it: a caller that keeps *buf between calls, as the
// engine's scratch does, pays no allocation per search once *buf has grown
// to the longest list it reads.
func (s *Snapshot) PostingsIDF(keyword string, buf *[]Posting) ([]Posting, float64) {
	pl := s.list(keyword)
	if pl == nil {
		return nil, 0
	}
	if pl.dead == 0 && len(pl.blocks) == 1 {
		return pl.blocks[0].ps, pl.idf
	}
	if buf == nil {
		buf = new([]Posting)
	}
	out := slices.Grow((*buf)[:0], pl.liveDF())
	for _, b := range pl.blocks {
		if pl.dead == 0 {
			out = append(out, b.ps...)
			continue
		}
		for _, p := range b.ps {
			if s.aliveAt(p.Frag) {
				out = append(out, p)
			}
		}
	}
	*buf = out
	return out, pl.idf
}

// Keywords returns all keywords with at least one live posting, sorted; the
// benchmark harness uses it to pick hot/warm/cold terms. The sorted slice
// is cached per epoch — for a frozen snapshot the first call builds it and
// every later call reuses it — and must not be modified by the caller.
func (s *Snapshot) Keywords() []string {
	if c := s.kwCache.Load(); c != nil && c.epoch == s.epoch {
		return c.kws
	}
	var out []string
	s.eachList(func(kw string, pl *postingList) {
		if pl.liveDF() > 0 {
			out = append(out, kw)
		}
	})
	sort.Strings(out)
	s.kwCache.Store(&kwCache{epoch: s.epoch, kws: out})
	return out
}

// dump builds the canonical Dump (see the type) of the snapshot's live
// fragments that keep admits (all of them when keep is nil) straight from
// its storage: the fragments sorted by identifier give each its dense dump
// position, and the lists of the sorted Keywords are filtered and remapped
// into one shared arena, dropping any left empty. The stored order
// (impact descending) is not the canonical one (TF descending, identifier
// ascending), so a remapped list is re-sorted unless it happens to be in
// canonical order already (every TF equal, every total equal, or one
// posting). The snapshot is immutable, so dumping one needs no lock.
func (s *Snapshot) dump(keep func(FragRef) bool) *Dump {
	order := make([]FragRef, 0, s.liveFrags)
	total := 0 // postings kept: the sum of the kept refs' forward keyword lists
	for ref := FragRef(0); int(ref) < s.numRefs; ref++ {
		if s.aliveAt(ref) && (keep == nil || keep(ref)) {
			order = append(order, ref)
			total += len(s.kwsAt(ref))
		}
	}
	sortRefsByID(s, order)
	kws := s.Keywords()
	d := &Dump{
		SelAttrs:  append([]string(nil), s.spec.SelAttrs...),
		EqAttrs:   append([]string(nil), s.spec.EqAttrs...),
		RangeAttr: s.spec.RangeAttr,
		Epoch:     s.epoch,
		FragKeys:  make([]string, len(order)),
		Terms:     make([]int64, len(order)),
		Keywords:  make([]string, 0, len(kws)),
		Postings:  make([][]Posting, 0, len(kws)),
	}
	pos := make([]int32, s.numRefs) // ref → dump position + 1, 0 when not dumped
	for i, ref := range order {
		m := s.metaAt(ref)
		d.FragKeys[i], d.Terms[i], pos[ref] = m.ID.Key(), m.Terms, int32(i+1)
	}
	arena := make([]Posting, 0, total)
	for _, kw := range kws {
		start := len(arena)
		for _, b := range s.list(kw).blocks {
			for _, p := range b.ps {
				if at := pos[p.Frag]; at > 0 {
					arena = append(arena, Posting{Frag: FragRef(at - 1), TF: p.TF})
				}
			}
		}
		if len(arena) == start {
			continue
		}
		ps := arena[start:len(arena):len(arena)]
		if !slices.IsSortedFunc(ps, comparePostings) {
			slices.SortFunc(ps, comparePostings)
		}
		d.Keywords, d.Postings = append(d.Keywords, kw), append(d.Postings, ps)
	}
	return d
}

// comparePostings orders a dump's postings canonically: TF descending,
// then dump position — identifier order — ascending.
func comparePostings(a, b Posting) int {
	if a.TF != b.TF {
		return cmp.Compare(b.TF, a.TF)
	}
	return cmp.Compare(a.Frag, b.Frag)
}

// EqValues returns a fragment's equality-attribute values keyed by column.
// The map belongs to the fragment's equality group and is shared by every
// caller and every snapshot version: it must not be modified.
func (s *Snapshot) EqValues(ref FragRef) (map[string]relation.Value, error) {
	if int(ref) < 0 || int(ref) >= s.numRefs {
		return nil, fmt.Errorf("%w: ref %d", ErrNoFragment, ref)
	}
	return s.group(s.gidAt(ref)).eqVals, nil
}

// RangeValue returns a fragment's range-attribute value (NULL when the
// query has no range attribute).
func (s *Snapshot) RangeValue(ref FragRef) (relation.Value, error) {
	m, err := s.Meta(ref)
	if err != nil {
		return relation.Value{}, err
	}
	if s.rangeIdx < 0 {
		return relation.Null(), nil
	}
	return m.ID[s.rangeIdx], nil
}

// rangeValOf is RangeValue without bounds checks, for internal use.
func (s *Snapshot) rangeValOf(ref FragRef) relation.Value {
	if s.rangeIdx < 0 {
		return relation.Null()
	}
	return s.metaAt(ref).ID[s.rangeIdx]
}

// Neighbors returns the fragment-graph neighbours of a live fragment: the
// adjacent members of its equality group in range order. A fragment has at
// most two neighbours (the graph is a union of paths, as in Fig. 9).
func (s *Snapshot) Neighbors(ref FragRef) ([]FragRef, error) {
	if int(ref) < 0 || int(ref) >= s.numRefs {
		return nil, fmt.Errorf("%w: ref %d", ErrNoFragment, ref)
	}
	c := s.chunkOf(ref)
	i := int(ref) & chunkMask
	if !c.frags[i].Alive {
		return nil, fmt.Errorf("%w: ref %d is removed", ErrNoFragment, ref)
	}
	g, pos := s.group(c.groupOf[i]), int(c.memberAt[i])
	var out []FragRef
	if pos > 0 {
		out = append(out, g.members[pos-1])
	}
	if pos+1 < len(g.members) {
		out = append(out, g.members[pos+1])
	}
	return out, nil
}

// GroupMembers returns the full equality group of a fragment in range
// order. The slice must not be modified.
func (s *Snapshot) GroupMembers(ref FragRef) ([]FragRef, int, error) {
	members, _, _, pos, err := s.GroupPath(ref)
	return members, pos, err
}

// GroupPath returns a live fragment's equality group in range order along
// with the parallel node weights (each member's total keyword count), the
// group's canonical equality key, and the fragment's position on the path.
// Neither slice may be modified. This is the search engine's seeding
// accessor: one chunk lookup hands the expansion loop everything it walks,
// so growing a db-page along the path reads neighbour weights without
// touching fragment metadata again — and the key gives every assembled
// page a content-based identity independent of ref numbering.
func (s *Snapshot) GroupPath(ref FragRef) (members []FragRef, weights []int64, key string, pos int, err error) {
	if int(ref) < 0 || int(ref) >= s.numRefs {
		return nil, nil, "", 0, fmt.Errorf("%w: ref %d", ErrNoFragment, ref)
	}
	c := s.chunkOf(ref)
	i := int(ref) & chunkMask
	if !c.frags[i].Alive {
		return nil, nil, "", 0, fmt.Errorf("%w: ref %d is removed", ErrNoFragment, ref)
	}
	g := s.group(c.groupOf[i])
	return g.members, g.weights, g.key, int(c.memberAt[i]), nil
}

// GroupSlot returns a live fragment's group key and its position on the
// group path, without bounds checking: the two fields the search's queue
// breaks an exact (score, size) tie between unvisited seeds on, read
// without materialising either path. The caller must have validated ref.
func (s *Snapshot) GroupSlot(ref FragRef) (key string, pos int) {
	c := s.chunkOf(ref)
	i := int(ref) & chunkMask
	return s.group(c.groupOf[i]).key, int(c.memberAt[i])
}

// Edges enumerates all fragment-graph edges as (smaller, larger) ref pairs,
// sorted. Mostly useful for tests and stats.
func (s *Snapshot) Edges() [][2]FragRef {
	var out [][2]FragRef
	s.eachGroup(func(g *group) {
		for i := 1; i < len(g.members); i++ {
			a, b := g.members[i-1], g.members[i]
			if a > b {
				a, b = b, a
			}
			out = append(out, [2]FragRef{a, b})
		}
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// NumEdges returns the number of fragment-graph edges.
func (s *Snapshot) NumEdges() int {
	n := 0
	s.eachGroup(func(g *group) {
		if len(g.members) > 1 {
			n += len(g.members) - 1
		}
	})
	return n
}
