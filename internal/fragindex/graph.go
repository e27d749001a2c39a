package fragindex

import (
	"fmt"
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
	// Restore rejects such postings, so admitting one here would make the
	// index's own Dump unrecoverable.
	for kw, tf := range termCounts {
		if kw == "" || tf <= 0 {
			return 0, fmt.Errorf("fragindex: %s: keyword %q with term frequency %d (want a non-empty keyword and a positive count)", id, kw, tf)
		}
	}
	idx.beginWrite()
	s = idx.s
	g := idx.groupFor(id, true)
	ref := idx.appendRef(Meta{ID: id, Terms: totalTerms, Alive: true}, g, -1)
	s.liveFrags++
	s.liveTerms += totalTerms

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

	// Posting lists: insert keeping TF-descending order.
	for kw, tf := range termCounts {
		idx.insertPosting(kw, Posting{Frag: ref, TF: tf})
		idx.appendKw(ref, kw)
	}
	s.epoch++
	return ref, nil
}

// insertPosting places p into kw's list preserving (TF desc, id asc) order
// and refreshes the list's liveness bookkeeping.
func (idx *Index) insertPosting(kw string, p Posting) {
	s := idx.s
	pl := idx.listForWrite(kw, true)
	idx.ownPostings(pl)
	list := pl.ps
	pos := sort.Search(len(list), func(i int) bool {
		if list[i].TF != p.TF {
			return list[i].TF < p.TF
		}
		return s.metaAt(list[i].Frag).ID.Compare(s.metaAt(p.Frag).ID) >= 0
	})
	list = append(list, Posting{})
	copy(list[pos+1:], list[pos:])
	list[pos] = p
	pl.ps = list
	if pl.liveDF() == 1 { // the list just came (back) to life
		s.liveKws++
	}
	pl.recompute()
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
	s := idx.s
	g := idx.groupForWrite(s.groupAt(ref))
	pos := s.posAt(ref)
	g.members = append(g.members[:pos], g.members[pos+1:]...)
	g.weights = append(g.weights[:pos], g.weights[pos+1:]...)
	for i := pos; i < len(g.members); i++ {
		idx.setMemberAt(g.members[i], i)
	}
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
		if pl.dead*idx.compactDen >= len(pl.ps)*idx.compactNum {
			idx.CompactPostings(kw)
		}
	}
	c.kwOf[ci] = nil // the tombstone never revives; free the forward map
	s.epoch++
	return nil
}

// UpdateFragment replaces a fragment's contents after the underlying
// database changed: remove then re-insert with fresh statistics. This is
// the efficient partial-update mechanism the paper's future work calls for —
// only the touched fragment's postings change, not the whole index.
func (idx *Index) UpdateFragment(id fragment.ID, termCounts map[string]int64, totalTerms int64) error {
	if err := idx.RemoveFragment(id); err != nil {
		return err
	}
	_, err := idx.InsertFragment(id, termCounts, totalTerms)
	return err
}

// Compact rebuilds the index without tombstones, reclaiming posting slots
// and renumbering refs: a Restore of the index's own Dump, so a compacted
// index is exactly what recovery from that dump would serve, at the same
// epoch, and keeps the receiver's posting compaction threshold. The
// receiver is left untouched, and the result shares no storage with it
// (or with any snapshot it published).
func (idx *Index) Compact() (*Index, error) {
	out, err := Restore(idx.s.dump(nil))
	if err != nil {
		return nil, err
	}
	out.compactNum, out.compactDen = idx.compactNum, idx.compactDen
	return out, nil
}
