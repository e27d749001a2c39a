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
// A fresh Index mutates its snapshot in place — the classic exclusive-
// mutation contract, with zero copy-on-write overhead. Calling Freeze
// publishes the current state as an immutable Snapshot and switches the
// builder into copy-on-write mode: the next mutation clones only the
// top-level pointer tables, and the payloads behind them are cloned lazily
// where mutations touch them — fragment metadata chunk by chunk (the chunk
// is the metadata CoW unit), posting lists hash shard by hash shard, and
// equality groups group by group. Freeze again to publish the next
// version. LiveIndex wraps this cycle behind an atomic pointer so readers
// resolve a consistent snapshot per query while a writer applies deltas
// concurrently (see live.go).
//
// # Performance
//
// The read path is free of whole-index rescans:
//
//   - Each posting list carries a dead-posting counter, so Postings and DF
//     never scan for tombstones on clean lists; a list is returned by
//     reference when it has no tombstones (the common case).
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
// And the publish path is free of whole-index copies: fragment metadata is
// chunked (see metaChunk), so a snapshot clone costs the chunk-pointer
// table plus the dirty chunks — not O(refs) — and there is no per-ref key
// map to copy (Lookup resolves through the group directory instead).
//
// Concurrency contract: a published Snapshot is immutable and safe for any
// number of concurrent readers. The Index builder itself follows the
// single-writer discipline: mutations and Freeze require exclusive access
// among themselves, but never disturb previously published snapshots.
package fragindex

import (
	"errors"
	"fmt"
	"maps"

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

// Posting is one inverted-list entry.
type Posting struct {
	Frag FragRef
	TF   int64
}

// Meta is a fragment's indexed summary: its identifier and total keyword
// count (the node weight in the fragment graph).
type Meta struct {
	ID    fragment.ID
	Terms int64
	Alive bool
}

// postingList is one keyword's inverted list plus its maintenance state:
// how many entries are tombstones of removed fragments, and the
// precomputed IDF (1/liveDF) the search engine reads per query.
type postingList struct {
	ps   []Posting // TF-descending; may contain up to `dead` tombstones
	dead int       // tombstoned entries within ps
	idf  float64   // 1/liveDF, 0 when the list has no live postings
}

// liveDF returns the number of live postings in the list.
func (pl *postingList) liveDF() int { return len(pl.ps) - pl.dead }

// recompute refreshes the precomputed IDF after a liveness change.
func (pl *postingList) recompute() {
	if df := pl.liveDF(); df > 0 {
		pl.idf = 1 / float64(df)
	} else {
		pl.idf = 0
	}
}

// Lists whose tombstones reach the compaction threshold (dead/len >=
// num/den, default compactDeadNum/compactDeadDen) are compacted on the
// spot; below the threshold Postings filters a copy. Each compaction is
// O(list) after Ω(list) removals, so tombstone reclamation is amortized
// O(1) per removal. Every serving index runs at the default; only the
// package's own tests and threshold micro-benchmark vary it (through
// setPostingCompaction): a lower ratio keeps lists cleaner (cheaper
// Postings reads while tombstones linger) at the cost of more frequent
// O(list) rewrites on removal-heavy churn.
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
// build a map per result.
type group struct {
	key     string
	eqVals  map[string]relation.Value
	members []FragRef // sorted ascending by range value
	weights []int64   // members[i]'s Meta.Terms
}

// Index is the builder half of the fragment index: a snapshot-in-progress
// plus the copy-on-write bookkeeping that isolates published snapshots from
// later mutations (see the package comment).
type Index struct {
	s *Snapshot

	// compactNum/compactDen is the posting-list compaction threshold
	// (see setPostingCompaction); defaults to compactDeadNum/Den.
	compactNum, compactDen int

	// cow is set once Freeze has published a snapshot: from then on every
	// mutation copies shared structures before writing. The owned* sets
	// track what has already been copied since the last Freeze — metadata
	// chunks, posting shards, posting lists, group shards, groups — so a
	// batch of mutations pays each clone once.
	cow          bool
	metaOwned    bool // the Snapshot struct + pointer tables are cloned
	ownedChunks  []bool
	ownedShards  []bool
	ownedGShards []bool
	ownedLists   map[string]struct{}
	ownedGroups  map[string]struct{}
}

// New creates an empty index for incremental construction.
func New(spec Spec) (*Index, error) {
	eqIdx, rangeIdx, err := spec.indices()
	if err != nil {
		return nil, err
	}
	return &Index{
		compactNum: compactDeadNum,
		compactDen: compactDeadDen,
		s: &Snapshot{
			spec:     spec,
			eqIdx:    eqIdx,
			rangeIdx: rangeIdx,
			shards:   newShards(),
			gshards:  newGroupShards(),
		},
	}, nil
}

// setPostingCompaction tunes the lazy posting-list compaction threshold:
// a list is rewritten without its tombstones once dead entries reach
// num/den of its length. Lower ratios compact more eagerly (cleaner lists
// for the read path, more O(list) rewrites under removal churn); higher
// ratios defer the rewrite but make Postings pay a filtered copy while
// tombstones linger. The default is 1/4. Requires 0 < num <= den. Like any
// mutation, it must not race with other builder calls.
func (idx *Index) setPostingCompaction(num, den int) error {
	if num <= 0 || den <= 0 || num > den {
		return fmt.Errorf("fragindex: invalid posting compaction threshold %d/%d", num, den)
	}
	idx.compactNum, idx.compactDen = num, den
	return nil
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
		g := idx.groupFor(id, true)
		ref := idx.appendRef(Meta{ID: id, Terms: terms, Alive: true}, g, len(g.members))
		g.members = append(g.members, ref)
		g.weights = append(g.weights, terms)
		refOf[key] = ref
		s.liveTerms += terms
	}
	s.liveFrags = s.numRefs
	for kw, ps := range out.Inverted {
		list := make([]Posting, 0, len(ps))
		for _, p := range ps {
			ref, ok := refOf[p.FragKey]
			if !ok {
				return nil, fmt.Errorf("%w: posting for unknown fragment", ErrNoFragment)
			}
			list = append(list, Posting{Frag: ref, TF: p.TF})
			idx.appendKw(ref, kw)
		}
		if len(list) == 0 {
			continue
		}
		pl := &postingList{ps: list}
		pl.recompute()
		s.shards[shardIndex(kw)].lists[kw] = pl
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

// resetBools returns b resized to n entries, all false.
func resetBools(b []bool, n int) []bool {
	if cap(b) < n {
		return make([]bool, n)
	}
	b = b[:n]
	clear(b)
	return b
}

// Freeze publishes the builder's current state as an immutable Snapshot
// and switches the builder into copy-on-write mode: later mutations build
// the next version without disturbing the returned one. Freeze is a
// mutation for concurrency purposes — it requires the same exclusive
// access as InsertFragment. Single-writer callers typically reach it
// through LiveIndex, which wraps the freeze/publish cycle behind an atomic
// pointer.
func (idx *Index) Freeze() *Snapshot {
	idx.cow = true
	idx.metaOwned = false
	idx.ownedChunks = resetBools(idx.ownedChunks, len(idx.s.chunks))
	idx.ownedShards = resetBools(idx.ownedShards, numShards)
	idx.ownedGShards = resetBools(idx.ownedGShards, numGroupShards)
	if idx.ownedLists == nil {
		idx.ownedLists = make(map[string]struct{})
	} else {
		clear(idx.ownedLists)
	}
	if idx.ownedGroups == nil {
		idx.ownedGroups = make(map[string]struct{})
	} else {
		clear(idx.ownedGroups)
	}
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

// pendingClones reports how many metadata chunks, shard maps, posting
// lists, and groups the builder has copied since the last Freeze — the
// physical write amplification of the in-progress delta.
func (idx *Index) pendingClones() (chunks, shards, lists, groups int) {
	for _, owned := range idx.ownedChunks {
		if owned {
			chunks++
		}
	}
	for _, owned := range idx.ownedShards {
		if owned {
			shards++
		}
	}
	return chunks, shards, len(idx.ownedLists), len(idx.ownedGroups)
}

// beginWrite prepares the builder for a mutation: in copy-on-write mode the
// first mutation after a Freeze clones the Snapshot struct and its pointer
// tables (the chunk table and the two shard tables); chunk, list, and
// group payloads are cloned lazily as mutations reach them.
func (idx *Index) beginWrite() {
	if !idx.cow || idx.metaOwned {
		return
	}
	idx.s = idx.s.clone()
	idx.metaOwned = true
}

// chunkForWrite returns ref's metadata chunk ready for in-place mutation,
// cloning it if it is shared with a published snapshot. Must run after
// beginWrite.
func (idx *Index) chunkForWrite(ref FragRef) *metaChunk {
	ci := int(ref) >> chunkShift
	c := idx.s.chunks[ci]
	if idx.cow && !idx.ownedChunks[ci] {
		c = c.clone()
		idx.s.chunks[ci] = c
		idx.ownedChunks[ci] = true
	}
	return c
}

// appendRef extends the ref space by one fragment with the given group
// assignment, appending a fresh chunk to the table when the last one is
// full. Must run after beginWrite (the new last chunk is dirtied).
func (idx *Index) appendRef(m Meta, g *group, pos int) FragRef {
	ref := FragRef(idx.s.numRefs)
	if int(ref)>>chunkShift == len(idx.s.chunks) {
		idx.s.chunks = append(idx.s.chunks, &metaChunk{})
		if idx.cow {
			idx.ownedChunks = append(idx.ownedChunks, true)
		}
	}
	c := idx.chunkForWrite(ref)
	c.frags = append(c.frags, m)
	c.kwOf = append(c.kwOf, nil)
	c.groupOf = append(c.groupOf, g)
	c.memberAt = append(c.memberAt, pos)
	idx.s.numRefs++
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
	idx.chunkForWrite(ref).memberAt[int(ref)&chunkMask] = pos
}

// setGroupOf repoints ref's group.
func (idx *Index) setGroupOf(ref FragRef, g *group) {
	idx.chunkForWrite(ref).groupOf[int(ref)&chunkMask] = g
}

// shardForWrite returns the shard ready for in-place mutation, cloning its
// map if it is shared with a published snapshot.
func (idx *Index) shardForWrite(si uint32) *shard {
	sh := idx.s.shards[si]
	if idx.cow && !idx.ownedShards[si] {
		sh = &shard{lists: maps.Clone(sh.lists)}
		idx.s.shards[si] = sh
		idx.ownedShards[si] = true
	}
	return sh
}

// listForWrite returns kw's posting list ready for in-place mutation,
// cloning list struct and postings if they are shared with a published
// snapshot. When the list is absent it is created if create is set, else
// nil is returned.
func (idx *Index) listForWrite(kw string, create bool) *postingList {
	sh := idx.shardForWrite(shardIndex(kw))
	pl := sh.lists[kw]
	if pl == nil {
		if !create {
			return nil
		}
		pl = &postingList{}
		sh.lists[kw] = pl
		if idx.cow {
			idx.ownedLists[kw] = struct{}{}
		}
		return pl
	}
	if idx.cow {
		if _, ok := idx.ownedLists[kw]; !ok {
			pl = &postingList{ps: append([]Posting(nil), pl.ps...), dead: pl.dead, idf: pl.idf}
			sh.lists[kw] = pl
			idx.ownedLists[kw] = struct{}{}
		}
	}
	return pl
}

// gshardForWrite returns the group shard ready for in-place mutation,
// cloning its map if it is shared with a published snapshot.
func (idx *Index) gshardForWrite(gi uint32) *groupShard {
	gs := idx.s.gshards[gi]
	if idx.cow && !idx.ownedGShards[gi] {
		gs = &groupShard{groups: maps.Clone(gs.groups)}
		idx.s.gshards[gi] = gs
		idx.ownedGShards[gi] = true
	}
	return gs
}

// groupForWrite returns g ready for in-place mutation, cloning its member
// slice (and repointing groupOf across the members' chunks) if it is
// shared with a published snapshot. Must run after beginWrite.
func (idx *Index) groupForWrite(g *group) *group {
	if !idx.cow {
		return g
	}
	key := g.key
	gi := groupShardIndex(key)
	if _, ok := idx.ownedGroups[key]; ok {
		return idx.s.gshards[gi].groups[key]
	}
	ng := &group{
		key:     g.key,
		eqVals:  g.eqVals,
		members: append([]FragRef(nil), g.members...),
		weights: append([]int64(nil), g.weights...),
	}
	idx.gshardForWrite(gi).groups[key] = ng
	for _, ref := range ng.members {
		idx.setGroupOf(ref, ng)
	}
	idx.ownedGroups[key] = struct{}{}
	return ng
}

// groupFor locates (optionally creating) the group of an identifier,
// returned ready for mutation.
func (idx *Index) groupFor(id fragment.ID, create bool) *group {
	s := idx.s
	eq := make([]relation.Value, len(s.eqIdx))
	for i, j := range s.eqIdx {
		eq[i] = id[j]
	}
	key := relation.Key(eq)
	gi := groupShardIndex(key)
	g, ok := s.gshards[gi].groups[key]
	if !ok {
		if !create {
			return nil
		}
		g = &group{key: key, eqVals: make(map[string]relation.Value, len(eq))}
		for i, v := range eq {
			g.eqVals[s.spec.EqAttrs[i]] = v
		}
		idx.gshardForWrite(gi).groups[key] = g
		if idx.cow {
			idx.ownedGroups[key] = struct{}{}
		}
		return g
	}
	return idx.groupForWrite(g)
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

// CompactPostings drops tombstoned entries from one keyword's inverted
// list in place, reclaiming their slots. RemoveFragment calls it
// automatically once a list's dead ratio reaches the compaction threshold;
// it is exported for callers that want eager reclamation.
func (idx *Index) CompactPostings(keyword string) {
	if pl := idx.s.list(keyword); pl == nil || pl.dead == 0 {
		return // nothing to reclaim; skip copy-on-write entirely
	}
	idx.beginWrite()
	pl := idx.listForWrite(keyword, false)
	live := pl.ps[:0]
	for _, p := range pl.ps {
		if idx.s.aliveAt(p.Frag) {
			live = append(live, p)
		}
	}
	pl.ps = live
	pl.dead = 0
	if len(pl.ps) == 0 {
		delete(idx.s.shards[shardIndex(keyword)].lists, keyword)
	}
}
