package fragindex

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/fragment"
)

// Neighbors returns the fragment-graph neighbours of a live fragment (live
// view of the builder's state; see Snapshot.Neighbors).
func (idx *Index) Neighbors(ref FragRef) ([]FragRef, error) { return idx.s.Neighbors(ref) }

// GroupMembers returns the full equality group of a fragment in range
// order. The slice must not be modified.
func (idx *Index) GroupMembers(ref FragRef) ([]FragRef, int, error) {
	return idx.s.GroupMembers(ref)
}

// Edges enumerates all fragment-graph edges as (smaller, larger) ref pairs,
// sorted. Mostly useful for tests and stats.
func (idx *Index) Edges() [][2]FragRef { return idx.s.Edges() }

// NumEdges returns the number of fragment-graph edges.
func (idx *Index) NumEdges() int { return idx.s.NumEdges() }

// InsertFragment adds a fragment incrementally (§VI-A): the node joins its
// equality group at its range position; if it lands between two previously
// adjacent fragments their edge is split into two. This is both the
// incremental construction path and the insert half of index maintenance.
func (idx *Index) InsertFragment(id fragment.ID, termCounts map[string]int64, totalTerms int64) (FragRef, error) {
	s := idx.s
	if len(id) != len(s.spec.SelAttrs) {
		return 0, fmt.Errorf("%w: id %v has %d values, want %d",
			ErrBadIDArity, id, len(id), len(s.spec.SelAttrs))
	}
	if _, ok := s.Lookup(id); ok {
		return 0, fmt.Errorf("%w: %s", ErrDupFragment, id)
	}
	if err := checkTerms(id, termCounts, totalTerms); err != nil {
		return 0, err
	}
	idx.beginWrite()
	s = idx.s
	gid, g := idx.groupFor(id)
	ref := idx.addRef(id, termCounts, totalTerms, gid, -1)

	// Splice into the group at the range position (weights stay parallel).
	rv := s.rangeValOf(ref)
	pos := sort.Search(len(g.members), func(i int) bool {
		return s.rangeValOf(g.members[i]).Compare(rv) >= 0
	})
	g.members = append(g.members, 0)
	copy(g.members[pos+1:], g.members[pos:])
	g.members[pos] = ref
	g.weights = append(g.weights, 0)
	copy(g.weights[pos+1:], g.weights[pos:])
	g.weights[pos] = totalTerms
	for i := pos; i < len(g.members); i++ {
		idx.setMemberAt(g.members[i], i)
	}
	s.epoch++
	return ref, nil
}

// checkTerms rejects a keyword set or a total Restore would reject, so
// admitting it would make the index's own Dump unrecoverable.
func checkTerms(id fragment.ID, termCounts map[string]int64, totalTerms int64) error {
	if !validTotal(totalTerms) {
		return fmt.Errorf("fragindex: %s: total term count %d (want 0..%d)", id, totalTerms, math.MaxInt32)
	}
	for kw, tf := range termCounts {
		if _, ok := checkTF(tf); kw == "" || !ok {
			return fmt.Errorf("fragindex: %s: keyword %q with term frequency %d (want a non-empty keyword and a count in 1..%d)", id, kw, tf, math.MaxInt32)
		}
	}
	return nil
}

// addRef appends a live fragment in group slot (gid, pos) and inserts its
// postings, each keeping its list's TF-descending order.
func (idx *Index) addRef(id fragment.ID, termCounts map[string]int64, totalTerms int64, gid int32, pos int) FragRef {
	ref := idx.appendRef(Meta{ID: id, Terms: totalTerms, Alive: true}, gid, pos)
	idx.s.liveFrags++
	idx.s.liveTerms += totalTerms
	for kw, tf := range termCounts {
		idx.insertPosting(kw, Posting{Frag: ref, TF: int32(tf)})
		idx.appendKw(ref, kw)
	}
	return ref
}

// RemoveFragment deletes a fragment: its group edge pair collapses back into
// one edge (the reverse of the §VI-A split), and its postings become
// tombstones. Each affected list's dead counter and precomputed IDF are
// updated through the forward keyword map — a change to the list header
// only, so under copy-on-write the list keeps sharing its postings with
// the published snapshot — and lists whose dead ratio reaches the
// compaction threshold are reclaimed on the spot, so the read path never
// pays for tombstones left behind here.
func (idx *Index) RemoveFragment(id fragment.ID) error {
	ref, ok := idx.s.Lookup(id)
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoFragment, id)
	}
	idx.beginWrite()
	g := idx.groupForWrite(idx.s.gidAt(ref))
	pos := idx.s.posAt(ref)
	g.members = append(g.members[:pos], g.members[pos+1:]...)
	g.weights = append(g.weights[:pos], g.weights[pos+1:]...)
	for i := pos; i < len(g.members); i++ {
		idx.setMemberAt(g.members[i], i)
	}
	idx.tombstone(ref)
	idx.s.epoch++
	return nil
}

// tombstone marks ref dead and its postings tombstones (see
// RemoveFragment); its group slot is the caller's to clear or reuse.
func (idx *Index) tombstone(ref FragRef) {
	s := idx.s
	c := idx.chunkForWrite(ref)
	ci := int(ref) & chunkMask
	c.frags[ci].Alive = false
	c.memberAt[ci] = -1
	s.liveFrags--
	s.liveTerms -= c.frags[ci].Terms
	for _, kw := range c.kwOf[ci] {
		pl := idx.listForWrite(kw, false)
		if pl == nil {
			continue
		}
		pl.dead++
		if pl.liveDF() == 0 {
			s.liveKws--
		}
		pl.recompute()
		if pl.dead*compactDeadDen >= pl.n*compactDeadNum {
			idx.CompactPostings(kw)
		}
	}
	c.kwOf[ci] = nil // the tombstone never revives; free the forward map
}

// UpdateFragment replaces a fragment's contents after the underlying
// database changed: the old ref becomes a tombstone and a fresh ref with
// the new statistics takes its group slot. This is the efficient
// partial-update mechanism the paper's future work calls for — only the
// touched fragment's postings change, not the whole index. An update
// keeps its identifier and so its range position: the new ref goes into
// the same members/weights slot, so no other member moves and the publish
// dirties the old ref's chunk, the append tail and one group, however
// large the group. The epoch advances by two, as a removal followed by an
// insert would advance it.
func (idx *Index) UpdateFragment(id fragment.ID, termCounts map[string]int64, totalTerms int64) error {
	old, ok := idx.s.Lookup(id)
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoFragment, id)
	}
	if err := checkTerms(id, termCounts, totalTerms); err != nil {
		return err
	}
	idx.beginWrite()
	gid, pos := idx.s.gidAt(old), idx.s.posAt(old)
	idx.tombstone(old)
	ref := idx.addRef(id, termCounts, totalTerms, gid, pos)
	g := idx.groupForWrite(gid)
	g.members[pos], g.weights[pos] = ref, totalTerms
	idx.s.epoch += 2
	return nil
}

// Compact rebuilds the index without tombstones, reclaiming posting slots
// and renumbering refs: a Restore of the index's own Dump, so a compacted
// index is exactly what recovery from that dump would serve, at the same
// epoch. The receiver is left untouched, and the result shares no storage
// with it (or with any snapshot it published).
func (idx *Index) Compact() (*Index, error) { return Restore(idx.s.dump(nil)) }
