package fragindex

import (
	"fmt"
	"slices"

	"repro/internal/fragment"
)

// Dump is an index's complete logical state in canonical, storage-neutral
// form: live fragments sorted by identifier, keywords sorted, and each
// posting list ordered (TF descending, fragment identifier ascending). That
// canonical order is not the order an index stores its lists in (impact —
// TF over the fragment's total — descending; see postingList): Dump
// re-sorts each list into it, and Restore checks it and then re-sorts each
// list into stored order, so the format is independent of the engine's
// read order.
// Postings reference fragments by their position in FragKeys. Two indexes
// holding the same logical state produce identical Dumps regardless of the
// mutation history that led there — the property the durable layer's
// recovery-equivalence checks rest on. Epoch carries the mutation epoch the
// state was captured at, so a restored index publishes at the epoch its
// source served.
type Dump struct {
	SelAttrs  []string
	EqAttrs   []string
	RangeAttr string
	Epoch     uint64
	FragKeys  []string    // live fragments, identifier-sorted
	Terms     []int64     // parallel to FragKeys
	Keywords  []string    // sorted
	Postings  [][]Posting // parallel to Keywords; Frag indexes FragKeys
}

// Dump captures the index's current logical state (see Dump's type doc).
// Tombstones are compacted away: dumped refs are positions in the
// identifier-sorted live fragment list, not the builder's ref space.
func (idx *Index) Dump() *Dump { return idx.s.dump(nil) }

// Restore rebuilds an index from a Dump, validating it as untrusted input:
// duplicate fragment keys, a total term count outside 0…math.MaxInt32,
// postings referencing out-of-range fragments, duplicate postings within
// one keyword list, and lists out of (TF descending, identifier ascending)
// order or carrying a non-positive TF all return ErrCorruptIndex — each silently corrupts group,
// document-frequency, or ranking invariants if accepted. A list that
// passes is stored in impact order (insertPosting binary-searches on it,
// and the search's threshold bound rests on it).
func Restore(d *Dump) (*Index, error) {
	if len(d.FragKeys) != len(d.Terms) {
		return nil, fmt.Errorf("%w: fragment arrays disagree", ErrCorruptIndex)
	}
	if len(d.Keywords) != len(d.Postings) {
		return nil, fmt.Errorf("%w: keyword arrays disagree", ErrCorruptIndex)
	}
	idx, err := New(Spec{
		SelAttrs:  d.SelAttrs,
		EqAttrs:   d.EqAttrs,
		RangeAttr: d.RangeAttr,
	})
	if err != nil {
		return nil, err
	}
	s := idx.s
	for i, key := range d.FragKeys {
		id, err := fragment.ParseID(key)
		if err != nil {
			return nil, fmt.Errorf("%w: bad fragment key: %v", ErrCorruptIndex, err)
		}
		if len(id) != len(d.SelAttrs) {
			return nil, fmt.Errorf("%w: fragment arity", ErrCorruptIndex)
		}
		if !validTotal(d.Terms[i]) {
			return nil, fmt.Errorf("%w: total term count %d", ErrCorruptIndex, d.Terms[i])
		}
		idx.appendRef(Meta{ID: id, Terms: d.Terms[i], Alive: true}, 0, -1)
		s.liveTerms += d.Terms[i]
	}
	s.liveFrags = s.numRefs
	// Rebuild groups: identifier-sorted insertion keeps members ordered.
	// Dumps are identifier-sorted by construction; tolerate arbitrary order
	// anyway by sorting. Sorted adjacency also makes duplicate keys — which
	// would silently split one fragment across two group slots — adjacent
	// and therefore cheap to reject.
	order := make([]FragRef, s.numRefs)
	for i := range order {
		order[i] = FragRef(i)
	}
	sortRefsByID(s, order)
	rank := make([]int, s.numRefs) // ref → position in identifier order
	for i, ref := range order {
		m := s.metaAt(ref)
		if i > 0 && s.metaAt(order[i-1]).ID.Compare(m.ID) == 0 {
			return nil, fmt.Errorf("%w: duplicate fragment %s", ErrCorruptIndex, m.ID)
		}
		rank[ref] = i
		gid, g := idx.groupFor(m.ID)
		c := s.chunkOf(ref)
		c.groupOf[ref&chunkMask], c.memberAt[ref&chunkMask] = gid, int32(len(g.members))
		g.members = append(g.members, ref)
		g.weights = append(g.weights, m.Terms)
	}
	// Size every ref's forward keyword list up front, carved from one
	// arena, so the appends below never regrow a list keyword by keyword.
	nkw := make([]int, s.numRefs)
	total := 0
	for _, wps := range d.Postings {
		for _, p := range wps {
			if int(p.Frag) >= 0 && int(p.Frag) < s.numRefs {
				nkw[p.Frag]++
				total++
			}
		}
	}
	kwArena := make([]string, total)
	for ref, n := range nkw {
		s.chunkOf(FragRef(ref)).kwOf[ref&chunkMask], kwArena = kwArena[:0:n], kwArena[n:]
	}
	// Every list's postings are carved from one arena, each capped at its
	// own end: a later write copies the block it touches anyway (see
	// postingList). Dumps list keywords sorted, so each put appends to its
	// shard's sorted directory. seen stamps each ref with the last list
	// (i+1) that holds it, so the duplicate check needs no per-list reset.
	arena := make([]Posting, 0, total)
	seen := make([]int, s.numRefs)
	var sorter impactSorter
	for i, kw := range d.Keywords {
		wps := d.Postings[i]
		if len(wps) == 0 {
			continue
		}
		if kw == "" {
			return nil, fmt.Errorf("%w: empty keyword", ErrCorruptIndex)
		}
		start := len(arena)
		for j, p := range wps {
			if int(p.Frag) < 0 || int(p.Frag) >= s.numRefs {
				return nil, fmt.Errorf("%w: posting ref out of range", ErrCorruptIndex)
			}
			if p.TF <= 0 {
				return nil, fmt.Errorf("%w: posting TF %d in %q", ErrCorruptIndex, p.TF, kw)
			}
			if seen[p.Frag] == i+1 {
				return nil, fmt.Errorf("%w: duplicate posting for fragment %d in %q",
					ErrCorruptIndex, p.Frag, kw)
			}
			if j > 0 {
				if q := wps[j-1]; q.TF < p.TF || q.TF == p.TF && rank[q.Frag] > rank[p.Frag] {
					return nil, fmt.Errorf("%w: postings of %q out of (TF desc, identifier asc) order at %d",
						ErrCorruptIndex, kw, j)
				}
			}
			seen[p.Frag] = i + 1
			arena = append(arena, p)
			idx.appendKw(p.Frag, kw)
		}
		ps := arena[start:len(arena):len(arena)]
		sorter.sort(ps, func(ref FragRef) int64 { return d.Terms[ref] }, func(ref FragRef) int { return rank[ref] })
		if !s.shards[shardIndex(kw)].put(kw, newPostingList(ps, idx.gen)) {
			return nil, fmt.Errorf("%w: duplicate keyword %q", ErrCorruptIndex, kw)
		}
		s.liveKws++
	}
	s.epoch = d.Epoch
	return idx, nil
}

// SetEpoch forces the builder's mutation epoch so the next published
// snapshot reports it. The durable layer uses it during recovery: a journal
// replay must land on exactly the epoch the pre-crash index acknowledged,
// not on whatever a from-scratch reconstruction happens to count to. Like
// any mutation, it requires exclusive builder access.
func (idx *Index) SetEpoch(e uint64) { idx.s.epoch = e }

// sortRefsByID sorts refs by fragment identifier. Dumps and
// never-updated builds arrive already sorted, so check first — a sort of
// sorted input still pays O(n log n) comparisons, while a linear scan
// confirms order in one pass.
func sortRefsByID(s *Snapshot, refs []FragRef) {
	byID := func(a, b FragRef) int { return s.metaAt(a).ID.Compare(s.metaAt(b).ID) }
	if !slices.IsSortedFunc(refs, byID) {
		slices.SortFunc(refs, byID)
	}
}
