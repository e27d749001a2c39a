package fragindex

import (
	"encoding/gob"
	"fmt"
	"io"
	"slices"
	"sort"

	"repro/internal/fragment"
)

// indexWire is the gob-serialized form of an Index. Only live fragments are
// written; groups are rebuilt on load.
type indexWire struct {
	SelAttrs  []string
	EqAttrs   []string
	RangeAttr string
	FragKeys  []string
	Terms     []int64
	Inverted  map[string][]wirePosting
}

type wirePosting struct {
	Frag int32
	TF   int64
}

// Dump is an index's complete logical state in canonical, storage-neutral
// form: live fragments sorted by identifier, keywords sorted, and each
// posting list ordered (TF descending, fragment identifier ascending).
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
// duplicate fragment keys, postings referencing out-of-range fragments,
// duplicate postings within one keyword list, and lists out of (TF
// descending, identifier ascending) order or carrying a non-positive TF
// all return ErrCorruptIndex — each silently corrupts group,
// document-frequency, or ranking invariants if accepted (insertPosting and
// the search's TF cutoff binary-search on the list order).
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
		idx.appendRef(Meta{ID: id, Terms: d.Terms[i], Alive: true}, nil, -1)
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
		g := idx.groupFor(m.ID, true)
		idx.setMemberAt(ref, len(g.members))
		idx.setGroupOf(ref, g)
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
		if !s.shards[shardIndex(kw)].put(kw, newPostingList(arena[start:len(arena):len(arena)], idx.gen)) {
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

// Save serializes the index. Tombstoned fragments are compacted away.
func (idx *Index) Save(w io.Writer) error {
	d := idx.Dump()
	wire := indexWire{
		SelAttrs:  d.SelAttrs,
		EqAttrs:   d.EqAttrs,
		RangeAttr: d.RangeAttr,
		FragKeys:  d.FragKeys,
		Terms:     d.Terms,
		Inverted:  make(map[string][]wirePosting, len(d.Keywords)),
	}
	for i, kw := range d.Keywords {
		wps := make([]wirePosting, len(d.Postings[i]))
		for j, p := range d.Postings[i] {
			wps[j] = wirePosting{Frag: int32(p.Frag), TF: int64(p.TF)}
		}
		wire.Inverted[kw] = wps
	}
	return gob.NewEncoder(w).Encode(&wire)
}

// Load deserializes an index written by Save, with the same corruption
// validation as Restore (ErrCorruptIndex on duplicate fragments, duplicate
// postings, or out-of-range refs). The gob envelope carries TFs as int64;
// one outside 1..math.MaxInt32 is ErrCorruptIndex too, never truncated.
func Load(r io.Reader) (*Index, error) {
	var wire indexWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptIndex, err)
	}
	d := &Dump{
		SelAttrs:  wire.SelAttrs,
		EqAttrs:   wire.EqAttrs,
		RangeAttr: wire.RangeAttr,
		FragKeys:  wire.FragKeys,
		Terms:     wire.Terms,
		Keywords:  make([]string, 0, len(wire.Inverted)),
	}
	for kw := range wire.Inverted {
		d.Keywords = append(d.Keywords, kw)
	}
	sort.Strings(d.Keywords)
	d.Postings = make([][]Posting, len(d.Keywords))
	for i, kw := range d.Keywords {
		wps := wire.Inverted[kw]
		ps := make([]Posting, len(wps))
		for j, p := range wps {
			tf, ok := checkTF(p.TF)
			if !ok {
				return nil, fmt.Errorf("%w: posting TF %d in %q", ErrCorruptIndex, p.TF, kw)
			}
			ps[j] = Posting{Frag: FragRef(p.Frag), TF: tf}
		}
		d.Postings[i] = ps
	}
	return Restore(d)
}

// sortRefsByID sorts refs by fragment identifier. Saved indexes and
// never-updated builds arrive already sorted, so check first — a sort of
// sorted input still pays O(n log n) comparisons, while a linear scan
// confirms order in one pass.
func sortRefsByID(s *Snapshot, refs []FragRef) {
	byID := func(a, b FragRef) int { return s.metaAt(a).ID.Compare(s.metaAt(b).ID) }
	if !slices.IsSortedFunc(refs, byID) {
		slices.SortFunc(refs, byID)
	}
}
