// Package fragindex implements Dash's fragment index (paper §V–§VI): the
// inverted fragment index, which maps keywords to the fragments containing
// them sorted by term frequency, and the fragment graph, whose nodes are
// fragments weighted by their total keyword counts and whose edges connect
// fragments that can combine into a db-page with nothing in between
// (Fig. 9).
//
// Fragments whose equality attributes agree form a group; within a group
// fragments are ordered by their range-attribute value, and the graph
// connects consecutive members. The graph supports the paper's incremental
// construction (§VI-A) — inserting a fragment between two connected nodes
// splits their edge — as well as removal and replacement, which is the
// update mechanism the paper lists as future work.
//
// # Architecture: snapshot + builder
//
// The index is split into two halves. Snapshot is the immutable read half:
// every query-serving accessor (Postings, DF, IDF, the graph walks, the
// Table IV statistics) lives on it, is O(1) or O(result), and is lock-free.
// Index is the single-writer builder half: it owns a snapshot-in-progress
// and the mutation API (InsertFragment, RemoveFragment, UpdateFragment,
// CompactPostings).
//
// Ownership follows one rule. Every copy-on-write unit — the Snapshot
// struct with its tables, each later chunk-table page, metadata chunk,
// directory shard, group page, group, posting-list header, block
// directory and posting block — carries the builder generation that
// allocated it. The builder writes a unit in place only when the stamp
// equals its current generation; otherwise it copies the unit, stamps the
// copy and puts it in the unit's slot. Freeze publishes the current state
// as an immutable Snapshot by incrementing the generation, in O(1), so
// the next mutation copies the Snapshot struct and its pointer tables, and
// the payloads behind them are copied lazily where mutations touch them.
// A fresh Index is at generation 0 and owns everything it builds, so it
// mutates in place with zero copy-on-write overhead. The rule's
// precondition is that no unit is shared between two builders: Restore,
// Compact and NewShardedLive each build into storage of their own.
//
// Fragment metadata is chunked behind a paged chunk table, the posting
// and group directories are hash shards, and equality groups live in a
// paged group table, each in the one slot its stable id names, so a group
// clone touches no member's metadata. A posting list is stored as blocks
// of ≈ 128 postings (see postingList) and copied in three steps: a
// tombstone changes only its header (dead count and IDF), so
// RemoveFragment clones the header and keeps sharing the published blocks;
// the first insert into the list in a publish copies its block directory,
// one slice header per block; and each block is copied — once per
// publish, with headroom for further inserts — only when an insert writes
// it. Every other block stays shared. A compaction recuts the whole list.
// LiveIndex wraps this cycle behind an atomic pointer so readers resolve a
// consistent snapshot per query while a writer applies deltas concurrently
// (see live.go).
//
// # Performance
//
// The read path is free of whole-index rescans:
//
//   - Each posting list carries a dead-posting counter, so Postings and DF
//     never scan for tombstones on clean lists. A clean list of one block
//     is returned by reference; a longer one is concatenated into the
//     caller's reused buffer (PostingsIDF), a memmove of 8-byte postings.
//   - RemoveFragment maintains the counters through a per-fragment forward
//     keyword map, and triggers CompactPostings on any list whose dead
//     ratio reaches compactDeadNum/compactDeadDen — lazy, amortized-O(1)
//     tombstone reclamation instead of an eager rescan.
//   - IDF is precomputed per list at mutation time, so query scoring does
//     no division or liveness counting.
//   - Live fragment/term/keyword counters make the Table IV statistics O(1).
//   - Keywords() is cached sorted and stamped with a mutation epoch; for a
//     frozen snapshot the cache is built once and reused forever.
//
// And a publish copies what the delta changes, not the index: fragment
// metadata is chunked behind a paged table (see metaChunk), so a snapshot
// clone costs a few small tables (the largest, the group-page table, one
// pointer per 256 groups) plus the dirty pages and chunks; an update
// keeps its group slot, so it dirties its old ref's chunk, the append
// tail, and one group with its table page;
// directory shards are sorted slices whose clones copy the values and
// share the keys (see sortedDir); an insert copies a list's block
// directory and the one block it lands in, not the list; a tombstone
// copies a list header, not its postings; and there is no per-ref key map
// to copy (Lookup resolves through the group directory instead).
//
// Concurrency contract: a published Snapshot is immutable and safe for any
// number of concurrent readers. The Index builder itself follows the
// single-writer discipline: mutations and Freeze require exclusive access
// among themselves, but never disturb previously published snapshots.
package fragindex

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/crawl"
	"repro/internal/fragment"
	"repro/internal/psj"
	"repro/internal/relation"
)

// Errors returned by index construction and maintenance.
var (
	ErrMultiRange   = errors.New("fragindex: queries with more than one range attribute are not supported")
	ErrUnknownAttr  = errors.New("fragindex: selection attribute mismatch")
	ErrDupFragment  = errors.New("fragindex: fragment already present")
	ErrNoFragment   = errors.New("fragindex: no such fragment")
	ErrBadIDArity   = errors.New("fragindex: fragment identifier arity mismatch")
	ErrCorruptIndex = errors.New("fragindex: corrupt serialized index")
	ErrDeltaSpec    = errors.New("fragindex: delta selection attributes do not match index spec")
)

// FragRef identifies a fragment within one Snapshot lineage. Refs are stable
// across snapshots of the same builder until a Compact renumbers them;
// removed fragments leave tombstones until then.
type FragRef int32

// Posting is one inverted-list entry: 8 bytes, so a list copy and the
// seed walk over a list move half what a 64-bit TF would. A fragment's
// term frequency fits an int32; every path a TF enters the index by
// (InsertFragment, Build, Restore, the durable snapshot decoder) rejects one
// past math.MaxInt32 instead of truncating it.
type Posting struct {
	Frag FragRef
	TF   int32
}

// Meta is a fragment's indexed summary: its identifier and total keyword
// count (the node weight in the fragment graph).
type Meta struct {
	ID    fragment.ID
	Terms int64
	Alive bool
}

// validTotal reports whether a fragment's total keyword count is in
// 0…math.MaxInt32. The search's bucketed queue assumes scores ≥ 0, so a
// negative total ranks pages wrongly without failing; every path a total
// enters the index by (InsertFragment, UpdateFragment, Build, Restore, the
// durable snapshot and journal decoders) rejects one outside the range.
func validTotal(total int64) bool { return total >= 0 && total <= math.MaxInt32 }

// Lists whose tombstones reach the compaction threshold (dead/len >=
// compactDeadNum/compactDeadDen) are compacted on the spot; below it
// Postings filters a copy. Each compaction is O(list) after Ω(list)
// removals, so tombstone reclamation is amortized O(1) per removal.
const (
	compactDeadNum = 1
	compactDeadDen = 4
)

// kwCache is the epoch-stamped sorted-keyword cache behind Keywords().
type kwCache struct {
	epoch uint64
	kws   []string
}

// Spec describes the selection-attribute structure the index is built over:
// which identifier components are equality attributes and which one (if
// any) is the range attribute.
type Spec struct {
	SelAttrs  []string
	EqAttrs   []string
	RangeAttr string // "" when the query has no range attribute
}

// SpecFromBound derives a Spec from a bound query. Dash's fragment graph
// assumes at most one range attribute (all the paper's application queries
// have exactly one); more are rejected.
func SpecFromBound(b *psj.Bound) (Spec, error) {
	ranges := b.RangeAttrCols()
	if len(ranges) > 1 {
		return Spec{}, fmt.Errorf("%w: %v", ErrMultiRange, ranges)
	}
	s := Spec{
		SelAttrs: append([]string(nil), b.SelAttrs...),
		EqAttrs:  append([]string(nil), b.EqAttrCols()...),
	}
	if len(ranges) == 1 {
		s.RangeAttr = ranges[0]
	}
	return s, nil
}

// eqIdx and rangeIdx locate attribute positions within fragment IDs.
func (s Spec) indices() (eqIdx []int, rangeIdx int, err error) {
	rangeIdx = -1
	pos := make(map[string]int, len(s.SelAttrs))
	for i, a := range s.SelAttrs {
		pos[a] = i
	}
	for _, a := range s.EqAttrs {
		i, ok := pos[a]
		if !ok {
			return nil, 0, fmt.Errorf("%w: equality attribute %s", ErrUnknownAttr, a)
		}
		eqIdx = append(eqIdx, i)
	}
	if s.RangeAttr != "" {
		i, ok := pos[s.RangeAttr]
		if !ok {
			return nil, 0, fmt.Errorf("%w: range attribute %s", ErrUnknownAttr, s.RangeAttr)
		}
		rangeIdx = i
	}
	return eqIdx, rangeIdx, nil
}

// group is one equality-value class: its members sorted by range value form
// a path in the fragment graph. weights mirrors members with each node's
// total keyword count, so the search expansion loop reads neighbour
// weights from the path it is already walking instead of dereferencing
// fragment metadata chunks per step. key is the canonical encoding of the
// group's equality values (relation.Key) — the directory key, the
// shard-routing input, and the content-based identity search tie-breaks
// use. eqVals holds the same values keyed by column: built once when the
// group is created, shared by every copy-on-write clone of the group and
// handed out read-only by Snapshot.EqValues, so the search path does not
// build a map per result. gen stamps the builder generation that
// allocated the group, as postingList.gen does: the builder writes a
// group in place only within that generation.
type group struct {
	key     string
	eqVals  map[string]relation.Value
	members []FragRef // sorted ascending by range value
	weights []int64   // members[i]'s Meta.Terms
	gen     uint64
}

// Index is the builder half of the fragment index: a snapshot-in-progress
// plus the one copy-on-write rule that isolates published snapshots from
// later mutations (see the package comment).
type Index struct {
	s *Snapshot

	// gen counts Freezes. The builder writes a copy-on-write unit in
	// place only when the unit is stamped gen, and otherwise copies it
	// and stamps the copy (the package comment's one rule), so a batch of
	// mutations pays each copy once. The rule holds only while no unit is
	// shared between two builders, which Restore, Compact and
	// NewShardedLive guarantee by building from a Dump into storage of
	// their own.
	gen uint64

	// What the builder copied since the last Freeze (see pendingClones).
	clonedChunks, clonedShards, copiedLists, clonedGroups int
}

// New creates an empty index for incremental construction. It is at
// generation 0 and owns everything it builds, so it mutates in place
// until its first Freeze.
func New(spec Spec) (*Index, error) {
	eqIdx, rangeIdx, err := spec.indices()
	if err != nil {
		return nil, err
	}
	return &Index{
		s: &Snapshot{
			spec:     spec,
			eqIdx:    eqIdx,
			rangeIdx: rangeIdx,
			shards:   newShards(),
			gshards:  newGroupShards(),
		},
	}, nil
}

// Build constructs the index from a crawl output in one pass: fragments are
// pre-sorted by identifier (the paper's §VI-A optimization), grouped, and
// the crawl's already-sorted posting lists are adopted directly.
func Build(out *crawl.Output, spec Spec) (*Index, error) {
	if len(spec.SelAttrs) != len(out.SelAttrs) {
		return nil, fmt.Errorf("%w: spec has %v, crawl output has %v",
			ErrUnknownAttr, spec.SelAttrs, out.SelAttrs)
	}
	idx, err := New(spec)
	if err != nil {
		return nil, err
	}
	s := idx.s
	ids, err := out.Fragments() // sorted by identifier
	if err != nil {
		return nil, err
	}
	// Identifier order sorts by equality values first, then range value,
	// so each group's members arrive already ordered. refOf is build-time
	// scaffolding only — the snapshot itself resolves keys through the
	// group directory (see Snapshot.Lookup).
	refOf := make(map[string]FragRef, len(ids))
	for _, id := range ids {
		key := id.Key()
		terms := out.FragmentTerms[key]
		if !validTotal(terms) {
			return nil, fmt.Errorf("fragindex: fragment %s has total term count %d (want 0..%d)", key, terms, math.MaxInt32)
		}
		gid, g := idx.groupFor(id)
		ref := idx.appendRef(Meta{ID: id, Terms: terms, Alive: true}, gid, len(g.members))
		g.members = append(g.members, ref)
		g.weights = append(g.weights, terms)
		refOf[key] = ref
		s.liveTerms += terms
	}
	s.liveFrags = s.numRefs
	// Ascending keyword order appends to each shard's sorted directory.
	kws := make([]string, 0, len(out.Inverted))
	for kw := range out.Inverted {
		kws = append(kws, kw)
	}
	slices.Sort(kws)
	for _, kw := range kws {
		ps := out.Inverted[kw]
		list := make([]Posting, 0, len(ps))
		for _, p := range ps {
			ref, ok := refOf[p.FragKey]
			if !ok {
				return nil, fmt.Errorf("%w: posting for unknown fragment", ErrNoFragment)
			}
			tf, ok := checkTF(p.TF)
			if !ok {
				return nil, fmt.Errorf("fragindex: posting of %q for %s has term frequency %d (want 1..%d)",
					kw, p.FragKey, p.TF, math.MaxInt32)
			}
			list = append(list, Posting{Frag: ref, TF: tf})
			idx.appendKw(ref, kw)
		}
		if len(list) == 0 {
			continue
		}
		s.shards[shardIndex(kw)].put(kw, newPostingList(list, idx.gen))
		s.liveKws++
	}
	return idx, nil
}

// Snapshot returns the builder's current state as a Snapshot without
// isolating it: the returned view shares the index's storage, so under the
// builder's exclusive-mutation contract it is a live view of the index.
// This makes *Index a search.Source with exactly the pre-snapshot
// semantics (searches observe mutations immediately). For an isolated,
// immutable version use Freeze or a LiveIndex.
func (idx *Index) Snapshot() *Snapshot { return idx.s }

// Freeze publishes the builder's current state as an immutable Snapshot:
// it increments the generation, so later mutations copy every unit they
// write and build the next version without disturbing the returned one.
// Freeze is a mutation for concurrency purposes — it requires the same
// exclusive access as InsertFragment. Single-writer callers typically
// reach it through LiveIndex, which wraps the freeze/publish cycle behind
// an atomic pointer.
func (idx *Index) Freeze() *Snapshot {
	idx.gen++
	idx.clonedChunks, idx.clonedShards, idx.copiedLists, idx.clonedGroups = 0, 0, 0, 0
	return idx.s
}

// discardTo abandons the builder's in-progress state and resumes
// copy-on-write building from s (a snapshot previously published by this
// builder). Because mutations after Freeze never touch published storage,
// this is a constant-time rollback — LiveIndex uses it to make Apply
// transactional.
func (idx *Index) discardTo(s *Snapshot) {
	idx.s = s
	idx.Freeze()
}

// pendingClones reports how many metadata chunks, posting shards, posting
// lists, and groups the builder has copied since the last Freeze — the
// physical write amplification of the in-progress delta. A list counts
// once its block directory is copied; a header-only clone (a tombstone)
// does not.
func (idx *Index) pendingClones() (chunks, shards, lists, groups int) {
	return idx.clonedChunks, idx.clonedShards, idx.copiedLists, idx.clonedGroups
}

// beginWrite prepares the builder for a mutation: the first mutation of a
// generation clones the Snapshot struct and its pointer tables (the inline
// first chunk-table page, the tables of later pages and of group pages,
// and the two shard tables); later-page, chunk, list, group-page and group
// payloads are cloned lazily as mutations reach them.
func (idx *Index) beginWrite() {
	if idx.s.gen != idx.gen {
		idx.s = idx.s.clone(idx.gen)
	}
}

// chunkPageForWrite returns page pi of the chunk table ready for in-place
// mutation. Must run after beginWrite.
func (idx *Index) chunkPageForWrite(pi int) *[pageSize]*metaChunk {
	if pi == 0 {
		return &idx.s.page0 // inline: beginWrite copied it with the Snapshot
	}
	return writablePage(&idx.s.pages[pi-1], idx.gen) // page p ≥ 1 is s.pages[p-1]
}

// chunkForWrite returns ref's metadata chunk ready for in-place mutation.
// Must run after beginWrite.
func (idx *Index) chunkForWrite(ref FragRef) *metaChunk {
	ci := int(ref) >> chunkShift
	c := idx.s.chunkAt(ci)
	if c.gen != idx.gen {
		c = c.clone(idx.gen)
		idx.chunkPageForWrite(ci >> pageShift)[ci&pageMask] = c
		idx.clonedChunks++
	}
	return c
}

// appendRef extends the ref space by one fragment with the given group
// slot, appending a fresh chunk (and page) to the table when the last one
// is full. Must run after beginWrite (the new last chunk is dirtied).
func (idx *Index) appendRef(m Meta, gid int32, pos int) FragRef {
	s := idx.s
	ref := FragRef(s.numRefs)
	if ci := s.numRefs >> chunkShift; s.numRefs&chunkMask == 0 { // every chunk is full
		pi := ci >> pageShift
		if pi == len(s.pages)+1 {
			s.pages = append(s.pages, &chunkPage{gen: idx.gen})
		}
		idx.chunkPageForWrite(pi)[ci&pageMask] = &metaChunk{gen: idx.gen}
		idx.clonedChunks++
	}
	c := idx.chunkForWrite(ref)
	c.frags = append(c.frags, m)
	c.kwOf = append(c.kwOf, nil)
	c.groupOf = append(c.groupOf, gid)
	c.memberAt = append(c.memberAt, int32(pos))
	s.numRefs++
	return ref
}

// appendKw records kw in ref's forward keyword map.
func (idx *Index) appendKw(ref FragRef, kw string) {
	c := idx.chunkForWrite(ref)
	i := int(ref) & chunkMask
	c.kwOf[i] = append(c.kwOf[i], kw)
}

// setMemberAt updates ref's position within its group.
func (idx *Index) setMemberAt(ref FragRef, pos int) {
	idx.chunkForWrite(ref).memberAt[int(ref)&chunkMask] = int32(pos)
}

// shardForWrite returns posting shard si ready for in-place mutation.
func (idx *Index) shardForWrite(si uint32) *shard {
	sh, cloned := writableDir(&idx.s.shards[si], idx.gen)
	if cloned {
		idx.clonedShards++
	}
	return sh
}

// groupForWrite returns group gid ready for in-place mutation, cloning it
// into its table slot unless this generation allocated it. The members
// keep naming the group by id, so the clone touches none of their chunks.
// Must run after beginWrite.
func (idx *Index) groupForWrite(gid int32) *group {
	g := idx.s.group(gid)
	if g.gen == idx.gen {
		return g
	}
	g = &group{
		key:     g.key,
		eqVals:  g.eqVals,
		members: slices.Clone(g.members),
		weights: slices.Clone(g.weights),
		gen:     idx.gen,
	}
	writablePage(&idx.s.gpages[gid>>pageShift], idx.gen)[gid&pageMask] = g
	idx.clonedGroups++
	return g
}

// groupFor locates the group of an identifier, creating it when absent,
// and returns its id and the group ready for mutation.
func (idx *Index) groupFor(id fragment.ID) (int32, *group) {
	s := idx.s
	eq := make([]relation.Value, len(s.eqIdx))
	for i, j := range s.eqIdx {
		eq[i] = id[j]
	}
	key := relation.Key(eq)
	gi := groupShardIndex(key)
	pos, ok := s.gshards[gi].find(key)
	if ok {
		gid := s.gshards[gi].vals[pos]
		return gid, idx.groupForWrite(gid)
	}
	g := &group{key: key, eqVals: make(map[string]relation.Value, len(eq)), gen: idx.gen}
	for i, v := range eq {
		g.eqVals[s.spec.EqAttrs[i]] = v
	}
	gid := int32(s.ngroups)
	if gid&pageMask == 0 { // every page is full
		s.gpages = append(s.gpages, &groupPage{gen: idx.gen})
	}
	writablePage(&s.gpages[gid>>pageShift], idx.gen)[gid&pageMask] = g
	s.ngroups++
	gs, _ := writableDir(&s.gshards[gi], idx.gen)
	gs.insertAt(pos, key, gid)
	idx.clonedGroups++
	return gid, g
}

// Read-path delegation: the builder exposes the full Snapshot read API as a
// live view of its current state, preserving the original Index interface
// for callers that own the index exclusively (tests, offline tools, the
// serializer).

// Spec returns the index's selection-attribute structure.
func (idx *Index) Spec() Spec { return idx.s.Spec() }

// NumFragments returns the number of live fragments (O(1)).
func (idx *Index) NumFragments() int { return idx.s.NumFragments() }

// NumKeywords returns the number of distinct indexed keywords with at
// least one live posting (O(1)).
func (idx *Index) NumKeywords() int { return idx.s.NumKeywords() }

// AvgTermsPerFragment reports the average keyword count over live
// fragments (Table IV's third column). O(1).
func (idx *Index) AvgTermsPerFragment() float64 { return idx.s.AvgTermsPerFragment() }

// Meta returns a fragment's summary.
func (idx *Index) Meta(ref FragRef) (Meta, error) { return idx.s.Meta(ref) }

// NumRefs returns the size of the ref space (live fragments plus
// tombstones).
func (idx *Index) NumRefs() int { return idx.s.NumRefs() }

// TermsOf returns a fragment's total keyword count without bounds checking.
func (idx *Index) TermsOf(ref FragRef) int64 { return idx.s.TermsOf(ref) }

// AliveRef reports whether ref is within range and not tombstoned.
func (idx *Index) AliveRef(ref FragRef) bool { return idx.s.AliveRef(ref) }

// Lookup resolves a fragment identifier to its ref.
func (idx *Index) Lookup(id fragment.ID) (FragRef, bool) { return idx.s.Lookup(id) }

// Postings returns the live postings of a keyword, sorted by TF descending.
func (idx *Index) Postings(keyword string) []Posting { return idx.s.Postings(keyword) }

// DF returns the document frequency of a keyword.
func (idx *Index) DF(keyword string) int { return idx.s.DF(keyword) }

// IDF returns the keyword's inverse document frequency (1/DF).
func (idx *Index) IDF(keyword string) float64 { return idx.s.IDF(keyword) }

// Keywords returns all keywords with at least one live posting, sorted.
func (idx *Index) Keywords() []string { return idx.s.Keywords() }

// EqValues returns a fragment's equality-attribute values keyed by column.
func (idx *Index) EqValues(ref FragRef) (map[string]relation.Value, error) {
	return idx.s.EqValues(ref)
}

// RangeValue returns a fragment's range-attribute value.
func (idx *Index) RangeValue(ref FragRef) (relation.Value, error) {
	return idx.s.RangeValue(ref)
}
