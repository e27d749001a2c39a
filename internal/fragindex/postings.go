package fragindex

import (
	"cmp"
	"math"
	"slices"
	"sort"
)

// A posting list is stored as blocks: non-empty runs of postings whose
// concatenation is the list in stored order — impact descending, then
// identifier ascending (see compareImpact). A fragment's impact on a
// keyword is tf/Terms, the score a one-fragment page of it would earn per
// unit of IDF; within a publish a ref's TF and total never change (an
// update mints a new ref), so the order is static. The block is the posting
// copy-on-write unit: a publish copies the list's block directory (one
// slice header per block) and the blocks it writes, and shares every other
// block by pointer with the snapshot it was built from — so an insert into
// a hot list copies ≈ blockSize postings, not the whole list. Build,
// Restore and CompactPostings cut a list into blocks of blockSize; an
// insert splits a block that grows past maxBlock into two halves.
const (
	blockSize = 128
	maxBlock  = 2 * blockSize
)

// postingBlock is one run of a posting list. gen is the builder generation
// (see Index.gen) that allocated ps: the builder writes ps in place only
// within that generation, and copies it first in any later one, because a
// Freeze in between may have published it.
type postingBlock struct {
	ps  []Posting
	gen uint64
}

// postingList is one keyword's inverted list plus its maintenance state:
// how many entries are tombstones of removed fragments, and the
// precomputed IDF (1/liveDF) the search engine reads per query. gen and
// dirGen stamp the generations that allocated the header and the block
// directory: a tombstone writes only the header, so a list whose header
// was cloned for one keeps sharing its directory and every block. Most
// lists are a single block; their directory is one, inside the header, so
// reading them — a dump walks every list — loads no separate directory.
type postingList struct {
	blocks []postingBlock // non-empty; may contain up to `dead` tombstones
	one    [1]postingBlock
	n      int     // postings across blocks, tombstones included
	dead   int     // tombstoned entries within blocks
	idf    float64 // 1/liveDF, 0 when the list has no live postings
	gen    uint64
	dirGen uint64
}

// newPostingList returns a list of ps whose header is stamped gen.
func newPostingList(ps []Posting, gen uint64) *postingList {
	pl := &postingList{gen: gen}
	pl.cut(ps, gen)
	pl.recompute()
	return pl
}

// cut makes pl the postings ps, cut into blocks of blockSize under a
// directory of its own, all stamped gen. The blocks alias ps, each capped
// at its own end, so an in-place insert into one of them reallocates
// instead of writing into the next.
func (pl *postingList) cut(ps []Posting, gen uint64) {
	dir := pl.one[:0]
	if len(ps) > blockSize {
		dir = make([]postingBlock, 0, (len(ps)+blockSize-1)/blockSize)
	}
	for i := 0; i < len(ps); i += blockSize {
		j := min(i+blockSize, len(ps))
		dir = append(dir, postingBlock{ps: ps[i:j:j], gen: gen})
	}
	pl.setBlocks(dir, gen)
	pl.n = len(ps)
}

// setBlocks installs dir as pl's directory, stamped gen; a one-block
// directory moves into the header.
func (pl *postingList) setBlocks(dir []postingBlock, gen uint64) {
	if len(dir) == 1 {
		pl.one[0] = dir[0]
		dir = pl.one[:]
	} else {
		pl.one[0] = postingBlock{} // hold no block the list let go of
	}
	pl.blocks, pl.dirGen = dir, gen
}

// liveDF returns the number of live postings in the list.
func (pl *postingList) liveDF() int { return pl.n - pl.dead }

// recompute refreshes the precomputed IDF after a liveness change.
func (pl *postingList) recompute() {
	if df := pl.liveDF(); df > 0 {
		pl.idf = 1 / float64(df)
	} else {
		pl.idf = 0
	}
}

// checkTF converts a term count to a posting's TF. ok is false unless
// 1 ≤ tf ≤ math.MaxInt32: Restore rejects a non-positive TF, and a larger
// one does not fit a posting, so admitting either would make the index's
// own Dump unrecoverable or silently wrong.
func checkTF(tf int64) (int32, bool) {
	if tf <= 0 || tf > math.MaxInt32 {
		return 0, false
	}
	return int32(tf), true
}

// listForWrite returns kw's posting list with a header ready for in-place
// mutation, cloning the header if an earlier generation allocated it. The
// directory and blocks may still be shared: writers of blocks call
// dirForWrite and blockForWrite first. When the list is absent it is
// created if create is set, else nil is returned.
func (idx *Index) listForWrite(kw string, create bool) *postingList {
	si := shardIndex(kw)
	i, ok := idx.s.shards[si].find(kw)
	if !ok {
		if !create {
			return nil
		}
		pl := &postingList{gen: idx.gen, dirGen: idx.gen}
		idx.shardForWrite(si).insertAt(i, kw, pl)
		return pl
	}
	pl := idx.s.shards[si].vals[i]
	if pl.gen != idx.gen {
		c := *pl
		c.gen = idx.gen
		if len(c.blocks) == 1 {
			c.blocks = c.one[:] // not the published header's
		}
		pl = &c
		idx.shardForWrite(si).vals[i] = pl
	}
	return pl
}

// dirForWrite makes pl's block directory (pl from listForWrite) writable
// in place, copying it — one slice header per block, with room for one
// split — unless this generation allocated it. A one-block directory was
// copied with the header. copiedLists counts the copies.
func (idx *Index) dirForWrite(pl *postingList) {
	if pl.dirGen == idx.gen {
		return
	}
	dir := pl.blocks
	if len(dir) > 1 {
		dir = append(make([]postingBlock, 0, len(dir)+1), dir...)
	}
	pl.setBlocks(dir, idx.gen)
	idx.copiedLists++
}

// blockForWrite makes block bi of pl (whose directory dirForWrite owns)
// writable in place and returns its postings, copying them unless this
// generation allocated them. The copy has room for an eighth more
// postings, so the insert that caused it — and usually the other inserts
// of the same publish — do not reallocate the block a second time.
func (idx *Index) blockForWrite(pl *postingList, bi int) []Posting {
	b := &pl.blocks[bi]
	if b.gen != idx.gen {
		b.ps = append(make([]Posting, 0, grownCap(len(b.ps))), b.ps...)
		b.gen = idx.gen
	}
	return b.ps
}

// grownCap is the capacity a copied posting block of n entries gets.
func grownCap(n int) int { return n + n/8 + 1 }

// compareImpact orders two postings by impact, descending: it is negative
// when tfA/termsA exceeds tfB/termsB. Impacts compare exactly, as int64
// cross-products (TF and totals are at most math.MaxInt32, so neither
// product overflows), and a fragment of total 0 has impact 0, as its
// score is 0.
func compareImpact(tfA int32, termsA int64, tfB int32, termsB int64) int {
	na, nb := int64(tfA), int64(tfB)
	if termsA == 0 {
		na, termsA = 0, 1
	}
	if termsB == 0 {
		nb, termsB = 0, 1
	}
	return cmp.Compare(nb*termsA, na*termsB)
}

// impactSorter puts lists into stored order: impact descending, then
// identifier ascending. Each posting's total and identifier rank are read
// once into a reused key buffer, not once per comparison.
type impactSorter struct {
	keys []impactKey
}

type impactKey struct {
	p     Posting
	terms int64
	rank  int
}

// sort orders ps, with totals from terms and identifier ranks from rank.
func (is *impactSorter) sort(ps []Posting, terms func(FragRef) int64, rank func(FragRef) int) {
	ks := is.keys[:0]
	for _, p := range ps {
		ks = append(ks, impactKey{p: p, terms: terms(p.Frag), rank: rank(p.Frag)})
	}
	slices.SortFunc(ks, func(a, b impactKey) int {
		if c := compareImpact(a.p.TF, a.terms, b.p.TF, b.terms); c != 0 {
			return c
		}
		return cmp.Compare(a.rank, b.rank)
	})
	for i := range ks {
		ps[i] = ks[i].p
	}
	is.keys = ks
}

// insertPosting places p into kw's list preserving stored order (impact
// desc, identifier asc) and refreshes the list's liveness bookkeeping. A
// binary search over the blocks' first postings picks the block, a second
// one the position within it; a block grown past maxBlock splits in two.
// p's fragment metadata must already be in place.
func (idx *Index) insertPosting(kw string, p Posting) {
	s := idx.s
	pl := idx.listForWrite(kw, true)
	idx.dirForWrite(pl)
	m := s.metaAt(p.Frag)
	before := func(q Posting) bool { // q sorts before p
		if c := compareImpact(q.TF, s.TermsOf(q.Frag), p.TF, m.Terms); c != 0 {
			return c < 0
		}
		return s.metaAt(q.Frag).ID.Compare(m.ID) < 0
	}
	// The last block whose first posting sorts before p takes it; the
	// first block when none does.
	bi := 0
	if len(pl.blocks) == 0 {
		pl.setBlocks(append(pl.one[:0], postingBlock{gen: idx.gen}), idx.gen)
	} else {
		bi = max(sort.Search(len(pl.blocks), func(i int) bool { return !before(pl.blocks[i].ps[0]) })-1, 0)
	}
	ps := idx.blockForWrite(pl, bi)
	ps = slices.Insert(ps, sort.Search(len(ps), func(i int) bool { return !before(ps[i]) }), p)
	if len(ps) > maxBlock {
		half := len(ps) / 2
		tail := append(make([]Posting, 0, grownCap(len(ps)-half)), ps[half:]...)
		ps = ps[:half]
		pl.blocks = slices.Insert(pl.blocks, bi+1, postingBlock{ps: tail, gen: idx.gen})
	}
	pl.blocks[bi].ps = ps
	pl.n++
	if pl.liveDF() == 1 { // the list just came (back) to life
		s.liveKws++
	}
	pl.recompute()
}

// CompactPostings drops tombstoned entries from one keyword's inverted
// list, reclaiming their slots: the live entries are copied once, in stored
// order, into a fresh array and cut into blocks of blockSize. A list left
// with no live entry is dropped from the directory. RemoveFragment calls it
// automatically once a list's dead ratio reaches the compaction threshold;
// it is exported for callers that want eager reclamation.
func (idx *Index) CompactPostings(keyword string) {
	if pl := idx.s.list(keyword); pl == nil || pl.dead == 0 {
		return // nothing to reclaim; skip copy-on-write entirely
	}
	idx.beginWrite()
	pl := idx.listForWrite(keyword, false)
	if pl.liveDF() == 0 {
		sh := idx.s.shards[shardIndex(keyword)] // listForWrite owns it
		i, _ := sh.find(keyword)
		sh.deleteAt(i)
		return
	}
	live := make([]Posting, 0, pl.liveDF())
	for _, b := range pl.blocks {
		for _, p := range b.ps {
			if idx.s.aliveAt(p.Frag) {
				live = append(live, p)
			}
		}
	}
	if pl.dirGen != idx.gen {
		idx.copiedLists++
	}
	pl.cut(live, idx.gen)
	pl.dead = 0
}

// Cursor walks one keyword's live postings of a snapshot in stored order —
// impact descending, identifier ascending — reading each block where it
// lies and skipping tombstones: no posting is copied. The search engine
// pulls seeds through it lazily (see internal/search). A Cursor holds
// pointers into its snapshot; the zero Cursor is exhausted.
type Cursor struct {
	s      *Snapshot
	blocks []postingBlock
	bi, i  int  // the next posting is blocks[bi].ps[i]
	dead   bool // the list holds tombstones to skip
}

// Cursor opens a cursor over keyword's list and returns it with the list's
// live document frequency; an absent keyword yields an exhausted cursor
// and DF 0.
func (s *Snapshot) Cursor(keyword string) (Cursor, int) {
	pl := s.list(keyword)
	if pl == nil {
		return Cursor{}, 0
	}
	return Cursor{s: s, blocks: pl.blocks, dead: pl.dead > 0}, pl.liveDF()
}

// Block returns the rest of the cursor's current block as it lies —
// tombstoned postings included, their refs still valid but dead — and
// moves the cursor to the next block; nil once the list is exhausted. It
// is the bulk read for a caller that only looks up live refs afterwards.
func (c *Cursor) Block() []Posting {
	if c.bi == len(c.blocks) {
		return nil
	}
	ps := c.blocks[c.bi].ps[c.i:]
	c.bi, c.i = c.bi+1, 0
	return ps
}

// Next returns the next live posting and its fragment's total keyword
// count; ok is false once the list is exhausted.
func (c *Cursor) Next() (p Posting, terms int64, ok bool) {
	for c.bi < len(c.blocks) {
		ps := c.blocks[c.bi].ps
		if c.i == len(ps) {
			c.bi, c.i = c.bi+1, 0
			continue
		}
		p = ps[c.i]
		c.i++
		if !c.dead || c.s.aliveAt(p.Frag) {
			return p, c.s.TermsOf(p.Frag), true
		}
	}
	return Posting{}, 0, false
}
