package fragindex

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"go/parser"
	"hash/maphash"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/crawl"
	"repro/internal/fragindex/fragtest"
	"repro/internal/fragment"
	"repro/internal/relation"
)

// The model checker of the fragment index. A history (fragtest.History) is
// data: a seed, which draws the corpus the history starts from, and steps
// drawn up front from one model (fragtest.Gen). run replays it through a
// LiveIndex, beside a twin builder that applies every update as a removal
// plus an insert, and runs one assertion set (checker.check) after every
// step. A failing history is shrunk (fragtest.Shrink) and printed as a
// literal for modelRegressions, which are replayed before new histories
// are drawn. Each test below is one configuration: the corpus, the mix its
// histories are drawn from, and the paths they must reach.

func TestCoWIsolationRandomHistories(t *testing.T) {
	checkModel(t, modelConfig{Config: fragtest.Config{Name: "cow", Steps: 50, Corpus: 30, Fresh: true}, trials: 6,
		reach: []string{pathDropped, pathNewGroup, pathCompaction, pathGC, pathSharedTombstone}})
}

// A hot keyword in every keyword set spans several posting blocks.
func TestPostingBlocksRandomHistories(t *testing.T) {
	checkModel(t, modelConfig{Config: fragtest.Config{Name: "blocks", Steps: 70, Corpus: 500, Hot: true, Changes: 8,
		Ops: "ppppppppppppppppppRg"}, trials: 2, reach: []string{pathLongList, pathSplit, pathGC}})
}

// Range values start negative and climb past zero: a key encodes an
// integer's two's complement, so fragment-key order — the order a Build
// adopts — disagrees with identifier order.
func TestDumpEquivalenceRandomHistories(t *testing.T) {
	checkModel(t, modelConfig{Config: fragtest.Config{Name: "dump", Steps: 50, Corpus: 30, Lo: -40,
		Ops: "ppppppdgss"}, trials: 5, reach: []string{pathGC, pathSplitShards}})
}

// Every configuration holds the in-place update equal to a twin's removal
// and insert; this one runs the serving writer's mix (BenchmarkFoldQ2's
// foldStream): 70 % updates carrying a donor's whole keyword set, 15 %
// inserts, 15 % removals of earlier inserts, 8 changes a publish.
func TestUpdateKeepsGroupSlot(t *testing.T) {
	checkModel(t, modelConfig{Config: fragtest.Config{Name: "writer", Steps: 40, Corpus: 60, Changes: 8, Exact: true,
		Kinds: "WWWWWWWWWWWWWWIIIEEE", Ops: "ppppfg"}, trials: 4, reach: []string{pathCompaction}})
	updateInBigGroup(t)
}

func TestPropIncrementalEqualsBatch(t *testing.T) {
	checkModel(t, modelConfig{Config: fragtest.Config{Name: "inserts", Steps: 30, Kinds: "i", Ops: "ppf"}, trials: 6})
}

func TestPropRandomInsertRemoveInvariants(t *testing.T) {
	checkModel(t, modelConfig{Config: fragtest.Config{Name: "churn", Steps: 50, Corpus: 10, Kinds: "iir"}, trials: 4})
}

func TestLiveCountersTrackMutations(t *testing.T) {
	checkModel(t, modelConfig{Config: fragtest.Config{Name: "counters", Steps: 50, Corpus: 10, Fresh: true, Kinds: "iirl"}, trials: 4})
}

// A Restore of exactly the chunk table's inline first page (pageSize
// chunks of chunkSize refs): a publish opens the next page while the
// restored snapshot is held, and a later one copies that page.
func TestChunkTablePageBoundary(t *testing.T) {
	checkModel(t, modelConfig{Config: fragtest.Config{Name: "pages", Steps: 2, Corpus: pageSize * chunkSize, Bulk: true, Ops: "p"},
		trials: 1, reach: []string{pathChunkPageOpened, pathChunkPage}})
}

// TestShrinkHistory forces a failure — a Dump → Restore step while the
// serving index holds fewer fragments than its corpus — on a drawn history
// of 60 steps; the shrinker cuts it to a removal and the restore, printed
// as a literal that parses.
func TestShrinkHistory(t *testing.T) {
	cfg := modelConfig{Config: fragtest.Config{Name: "shrink", Steps: 60, Corpus: 30}, fault: func(c *checker, st fragtest.Step) error {
		if st.Op == fragtest.Restore && c.l.Snapshot().NumFragments() < 30 {
			return errors.New("restored fewer fragments than the corpus")
		}
		return nil
	}}
	h := fragtest.Gen(cfg.Config, 0)
	fails := func(h fragtest.History) bool { return run(cfg, h, map[string]int{}) != nil }
	for ; !fails(h); h = fragtest.Gen(cfg.Config, h.Seed+1) {
	}
	small := fragtest.Shrink(h, fails)
	if _, err := parser.ParseExpr("[]fragtest.History{" + small.String() + "}"); err != nil || len(small.Steps) > 3 || !fails(small) {
		t.Fatalf("%d steps shrunk to %d (%v):\n%v", len(h.Steps), len(small.Steps), err, small)
	}
}

// modelRegressions are shrunk failing histories, replayed before any new
// history of their configuration is drawn. Both entries shrank from
// histories that failed while sortedDir.deleteAt deleted in place from
// keys its clones share.
var modelRegressions = []fragtest.History{
	{Cfg: "cow", Seed: 0, Steps: []fragtest.Step{
		{Op: fragtest.Publish, Changes: []fragtest.Change{{Op: crawl.OpUpdateFragment, G: "g2", V: 5, Terms: map[string]int64{"t11": 1, "t6": 3, "t8": 3}, Total: 7}}},
	}},
	{Cfg: "churn", Seed: 1, Steps: []fragtest.Step{
		{Op: fragtest.Publish, Changes: []fragtest.Change{{Op: crawl.OpInsertFragment, G: "g0", V: 45, Terms: map[string]int64{"t4": 3, "t7": 2, "t8": 1}, Total: 6}}},
		{Op: fragtest.Publish, Changes: []fragtest.Change{{Op: crawl.OpRemoveFragment, G: "g0", V: 45}}},
	}},
}

// modelConfig is one configuration of the checker: the histories it draws
// (fragtest's generator options), how many, the paths they must reach, and
// one more assertion, to test the checker.
type modelConfig struct {
	fragtest.Config
	trials int
	reach  []string
	fault  func(c *checker, st fragtest.Step) error
}

// The paths a configuration can require its histories to reach.
const (
	pathLongList        = "a list of ≥ 4 blocks"
	pathSplit           = "a block split"
	pathDropped         = "a dropped list"
	pathNewGroup        = "a new group"
	pathCompaction      = "a threshold compaction"
	pathGC              = "a snapshot GC"
	pathSharedTombstone = "a removal sharing its list's blocks"
	pathSplitShards     = "a 2-way split"
	pathChunkPageOpened = "a publish opening a chunk page past the inline one"
	pathChunkPage       = "a publish copying a chunk page past the inline one"
)

// checkModel runs cfg's regressions and draws cfg.trials histories through
// fragtest.Check.
func checkModel(t *testing.T, cfg modelConfig) {
	t.Parallel()
	fragtest.Check(t, cfg.Config, cfg.trials, modelRegressions, cfg.reach, func(h fragtest.History, hits map[string]int) error {
		return run(cfg, h, hits)
	})
}

// id is a change's fragment on cowSpec.
func id(c fragtest.Change) fragment.ID { return fragment.ID{relation.String(c.G), relation.Int(c.V)} }

var cowSpec = Spec{SelAttrs: []string{"g", "v"}, EqAttrs: []string{"g"}, RangeAttr: "v"}

// checker is the state of one run: the model, the LiveIndex under test, the
// twin builder, the published snapshots it holds with their fingerprints at
// publish, and the paths reached.
type checker struct {
	cfg  modelConfig
	m    *fragtest.Model
	l    *LiveIndex
	twin *Index
	held []*Snapshot
	sums []uint64
	hits map[string]int
}

// run replays h on cfg's corpus and returns the first failed assertion; a
// panic fails too.
func run(cfg modelConfig, h fragtest.History, hits map[string]int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	c := &checker{cfg: cfg, m: fragtest.NewModel(cfg.Config, h.Seed), hits: hits}
	var corpus *Dump
	if cfg.Bulk {
		b, err := Build(output(c.m, nil), cowSpec)
		if err != nil {
			return err
		}
		corpus = b.Dump()
	}
	load := func() (*Index, error) {
		if corpus != nil {
			return Restore(corpus)
		}
		idx, _ := New(cowSpec)
		for _, k := range c.m.Keys {
			f := c.m.Frags[k]
			if _, err := idx.InsertFragment(id(f), f.Terms, f.Total); err != nil {
				return nil, err
			}
		}
		return idx, nil
	}
	idx, err := load()
	if err == nil {
		c.twin, err = load()
	}
	if err != nil {
		return err
	}
	c.l = NewLive(idx)
	c.hold(c.l.Snapshot())
	for i, st := range h.Steps {
		if err := c.step(st); err != nil {
			return fmt.Errorf("step %d %v: %w", i, st, err)
		}
		if err := c.check(st); err != nil {
			return fmt.Errorf("after step %d %v: %w", i, st, err)
		}
	}
	return c.checkHeld(0)
}

// hold keeps s with its fingerprint at publish. check re-checks the last
// four held snapshots after every step, and run all of them after the last.
func (c *checker) hold(s *Snapshot) {
	c.held, c.sums = append(c.held, s), append(c.sums, fingerprint(s))
}

// checkHeld re-checks the held snapshots from the i-th on.
func (c *checker) checkHeld(i int) error {
	for i = max(i, 0); i < len(c.held); i++ {
		if fingerprint(c.held[i]) != c.sums[i] {
			return fmt.Errorf("held snapshot %d of %d (epoch %d) changed after its publish", i, len(c.held), c.held[i].epoch)
		}
	}
	return nil
}

func (c *checker) step(st fragtest.Step) error {
	switch st.Op {
	case fragtest.Publish:
		return c.publish(st.Changes)
	case fragtest.Freeze:
		c.hold(c.twin.Freeze())
		return nil
	case fragtest.Split:
		// A split of n > 1 only reads the builder it is handed.
		sl, err := NewShardedLive(c.l.builder, 2)
		if err != nil {
			return err
		}
		c.hits[pathSplitShards]++
		for si := 0; si < 2; si++ {
			want, err := Build(output(c.m, func(id fragment.ID) bool {
				shard, err := sl.ShardFor(id)
				return err == nil && shard == si
			}), cowSpec)
			if err != nil {
				return err
			}
			if got := sl.Shard(si).Snapshot(); got.Epoch() != uint64(got.NumFragments()) || !reflect.DeepEqual(logicalState(got), logicalState(want.s)) {
				return fmt.Errorf("split shard %d differs from a Build of its %d fragments at that epoch", si, got.NumFragments())
			}
		}
		return nil
	case fragtest.GC:
		before := c.l.Dump()
		if ran, err := c.l.CompactIfNeeded(context.Background(), 0); err != nil || !ran {
			return err
		}
		c.hits[pathGC]++
		if s := c.l.Snapshot(); s.NumRefs() != s.NumFragments() || !reflect.DeepEqual(c.l.Dump(), withEpoch(before, before.Epoch+1)) {
			return errors.New("the GC left tombstones or changed the dumped state")
		}
	case fragtest.Restore:
		r, err := Restore(c.l.Dump())
		if err != nil {
			return err
		}
		c.l = NewLive(r)
	}
	// A new lineage: nothing to share with the last snapshot.
	c.hold(c.l.Snapshot())
	_, _, err := checkBlocks(nil, c.l.Snapshot(), 0)
	return err
}

// publish applies the changes the model admits as one publish, and the
// same to the twin, an update as a removal and an insert.
func (c *checker) publish(changes []fragtest.Change) error {
	var d crawl.Delta
	removals := true
	for _, ch := range changes {
		if c.m.Admits(ch) {
			c.m.Apply(ch)
			d.Changes = append(d.Changes, crawl.FragmentChange{Op: ch.Op, ID: id(ch), TermCounts: ch.Terms, TotalTerms: ch.Total})
			removals = removals && ch.Op == crawl.OpRemoveFragment
		}
	}
	if len(d.Changes) == 0 {
		return nil
	}
	prev := c.l.Snapshot()
	st, err := c.l.Apply(context.Background(), d)
	for _, ch := range d.Changes {
		if err == nil && ch.Op != crawl.OpInsertFragment {
			err = c.twin.RemoveFragment(ch.ID)
		}
		if err == nil && ch.Op != crawl.OpRemoveFragment {
			_, err = c.twin.InsertFragment(ch.ID, ch.TermCounts, ch.TotalTerms)
		}
	}
	if err != nil {
		return err
	}
	s := c.l.Snapshot()
	c.hold(s)
	longest, splits, err := checkBlocks(prev, s, s.gen)
	if err != nil {
		return err
	}
	c.hits[pathSplit] += splits
	c.hits[pathLongList] += max(longest-3, 0)
	prev.eachList(func(kw string, pl *postingList) {
		if now := s.list(kw); now == nil {
			c.hits[pathDropped]++
		} else if now.n < pl.n {
			c.hits[pathCompaction]++
		}
	})
	c.hits[pathNewGroup] += boolInt(s.ngroups > prev.ngroups)
	c.hits[pathChunkPageOpened] += boolInt(len(s.pages) > len(prev.pages))
	c.hits[pathChunkPage] += boolInt(slices.ContainsFunc(s.pages[:len(prev.pages)], func(p *chunkPage) bool { return p.gen == s.gen }))
	if !removals {
		return nil
	}
	// A removal clones the headers of its lists and shares their blocks,
	// unless it takes a list to the compaction threshold: that recuts the
	// list, or drops it once nothing in it is live. A recut is the only
	// list copy a removal-only publish reports.
	type count struct {
		n, dead int
		recut   bool
	}
	lists, recuts := make(map[string]*count), 0
	for _, ch := range d.Changes {
		ref, _ := prev.Lookup(ch.ID)
		for _, kw := range prev.kwsAt(ref) {
			l := lists[kw]
			if l == nil {
				l = &count{n: prev.list(kw).n, dead: prev.list(kw).dead}
				lists[kw] = l
			}
			if l.dead++; l.dead < l.n && l.dead*compactDeadDen >= l.n*compactDeadNum {
				recuts += 1 - boolInt(l.recut)
				l.n, l.dead, l.recut = l.n-l.dead, 0, true
			}
		}
	}
	for kw, l := range lists {
		before, after := prev.list(kw), s.list(kw)
		recut := after != nil && after.dirGen == s.gen && !slices.ContainsFunc(after.blocks, func(b postingBlock) bool { return b.gen != s.gen })
		shared := after != nil && after != before && slices.EqualFunc(after.blocks, before.blocks, func(a, b postingBlock) bool {
			return &a.ps[0] == &b.ps[0] && len(a.ps) == len(b.ps) // the same arrays, at the same lengths
		})
		if (after == nil) != (l.dead == l.n) || after != nil && !(l.recut && recut || !l.recut && shared) {
			return fmt.Errorf("%q is neither dropped once empty, recut at the threshold, nor sharing its blocks behind a new header", kw)
		}
		c.hits[pathSharedTombstone] += boolInt(shared)
	}
	if st.ClonedLists != recuts {
		return fmt.Errorf("a removal-only publish reports %d cloned lists, %d compactions", st.ClonedLists, recuts)
	}
	return nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// check is the assertion set every step ends with.
func (c *checker) check(st fragtest.Step) error {
	if err := c.checkHeld(len(c.held) - 4); err != nil {
		return err
	}
	s := c.l.Snapshot()
	d := s.dump(nil)
	if r, err := Restore(d); err != nil || !reflect.DeepEqual(r.Dump(), d) {
		return fmt.Errorf("Restore(d).Dump() differs from d (%v)", err)
	}
	b, err := Build(output(c.m, nil), cowSpec)
	if err != nil {
		return err
	}
	if got := (logical{withEpoch(d, 0), graphOf(s)}); !reflect.DeepEqual(got, logicalState(b.s)) {
		return errors.New("the serving state differs from a from-scratch Build of the model")
	} else if !reflect.DeepEqual(got, logicalState(c.twin.s)) {
		return errors.New("the twin builder differs from the serving state")
	}
	if err := errors.Join(checkStats(s), checkStats(c.twin.s)); err != nil {
		return err
	}
	if c.cfg.fault != nil {
		return c.cfg.fault(c, st)
	}
	return nil
}

// output renders the model's live fragments that keep admits (all when
// keep is nil) as a crawl output, each keyword list in the crawler's (TF
// descending, fragment key ascending) order — which is not identifier
// order once range values change sign, so a Build from it stores lists a
// Dump must re-sort.
func output(m *fragtest.Model, keep func(fragment.ID) bool) *crawl.Output {
	out := &crawl.Output{SelAttrs: cowSpec.SelAttrs, FragmentTerms: make(map[string]int64),
		Inverted: make(map[string][]crawl.Posting)}
	for _, f := range m.Frags {
		if key := id(f).Key(); keep == nil || keep(id(f)) {
			out.FragmentTerms[key] = f.Total
			for kw, tf := range f.Terms {
				out.Inverted[kw] = append(out.Inverted[kw], crawl.Posting{FragKey: key, TF: tf})
			}
		}
	}
	for _, ps := range out.Inverted {
		slices.SortFunc(ps, func(a, b crawl.Posting) int {
			if a.TF != b.TF {
				return int(b.TF - a.TF)
			}
			return strings.Compare(a.FragKey, b.FragKey)
		})
	}
	return out
}

// withEpoch returns a copy of d stamped with epoch e.
func withEpoch(d *Dump, e uint64) *Dump {
	c := *d
	c.Epoch = e
	return &c
}

// logicalState is a snapshot's logical state keyed by fragment identifier
// rather than ref — its Dump apart from the epoch, and its fragment graph —
// so index versions that reached the same content along different
// mutation paths (and so different ref numberings) compare equal.
func logicalState(s *Snapshot) logical { return logical{withEpoch(s.dump(nil), 0), graphOf(s)} }

type logical struct {
	dump  *Dump
	graph map[string]string
}

// graphOf is s's fragment graph by content: each non-empty group's member
// identifiers and node weights in path order, encoded, by group key.
func graphOf(s *Snapshot) map[string]string {
	out := make(map[string]string)
	s.eachGroup(func(g *group) {
		var b []byte
		for i, ref := range g.members {
			for _, v := range s.metaAt(ref).ID {
				b = relation.AppendValue(b, v)
			}
			b = binary.AppendVarint(b, g.weights[i])
		}
		if len(b) > 0 {
			out[g.key] = string(b)
		}
	})
	return out
}

// checkStats recounts what the index maintains, the hard way. The graph:
// every live fragment is a member of its group at the position and with
// the weight its chunk records, members are sorted by range value, and
// NumEdges is Σ(len − 1) over the groups. The counters: live fragments,
// their average terms, the keywords with a live posting, and each list's
// DF, IDF = 1/DF and dead count, under the compaction threshold. The
// search's view: Postings and PostingsIDF are a list's live postings in
// block order, and a keyword with no list has DF 0, IDF 0 and no postings.
func checkStats(s *Snapshot) (err error) {
	edges, members := 0, 0
	for gid := int32(0); int(gid) < s.ngroups; gid++ {
		g := s.group(gid)
		edges, members = edges+max(len(g.members)-1, 0), members+len(g.members)
		for i, ref := range g.members {
			if !s.aliveAt(ref) || s.posAt(ref) != i || s.gidAt(ref) != gid || len(g.weights) != len(g.members) || g.weights[i] != s.metaAt(ref).Terms {
				return fmt.Errorf("group %q: member %d (ref %d) is dead, misplaced or misweighted", g.key, i, ref)
			}
			if i > 0 && s.rangeValOf(g.members[i-1]).Compare(s.rangeValOf(ref)) >= 0 {
				return fmt.Errorf("group %q is not sorted by range value at %d", g.key, i)
			}
		}
	}
	frags, terms, kws := 0, int64(0), 0
	for ref := FragRef(0); int(ref) < s.numRefs; ref++ {
		if m := s.metaAt(ref); m.Alive {
			frags, terms = frags+1, terms+m.Terms
		}
	}
	if s.NumEdges() != edges || members != frags {
		return fmt.Errorf("NumEdges %d, want %d; %d members of %d live fragments", s.NumEdges(), edges, members, frags)
	}
	var buf, live []Posting
	s.eachList(func(kw string, pl *postingList) {
		live = live[:0]
		for _, b := range pl.blocks {
			for _, p := range b.ps {
				if s.aliveAt(p.Frag) {
					live = append(live, p)
				}
			}
		}
		idf := 0.0
		if len(live) > 0 {
			kws, idf = kws+1, 1/float64(len(live))
		}
		ps, psIDF := s.PostingsIDF(kw, &buf)
		if err == nil && (pl.liveDF() != len(live) || s.DF(kw) != len(live) || s.IDF(kw) != idf || pl.dead*compactDeadDen >= pl.n*compactDeadNum ||
			!slices.Equal(ps, live) || psIDF != idf || !slices.Equal(s.Postings(kw), live)) {
			err = fmt.Errorf("%q: %d live of %d postings, %d dead, DF %d, IDF %v, %d in the search's view", kw, len(live), pl.n, pl.dead, s.DF(kw), s.IDF(kw), len(ps))
		}
	})
	if err == nil && (s.DF("absent") != 0 || s.IDF("absent") != 0 || s.Postings("absent") != nil) {
		err = errors.New("a keyword with no list has postings, a DF or an IDF")
	}
	avg := 0.0
	if frags > 0 {
		avg = float64(terms) / float64(frags)
	}
	if err == nil && (s.NumFragments() != frags || s.NumKeywords() != kws || len(s.Keywords()) != kws || s.AvgTermsPerFragment() != avg) {
		err = fmt.Errorf("counters %d fragments, %d keywords, %v average; recount %d, %d, %v",
			s.NumFragments(), s.NumKeywords(), s.AvgTermsPerFragment(), frags, kws, avg)
	}
	return err
}

var fingerprintSeed = maphash.MakeSeed()

// fingerprint hashes everything a reader of s can observe and every unit
// it reaches: the counters, each ref's Meta, forward keywords and group
// slot, each list's blocks (tombstones included), dead count and IDF, each
// group by id, and the group directory. A later write into storage s
// shares changes it.
func fingerprint(s *Snapshot) uint64 {
	var h maphash.Hash
	h.SetSeed(fingerprintSeed)
	b := make([]byte, 0, 4096)
	put := func(vs ...int64) {
		for _, v := range vs {
			b = binary.AppendVarint(b, v)
		}
		if len(b) > 2048 { // hash as it goes: one buffer, however large s is
			h.Write(b)
			b = b[:0]
		}
	}
	str := func(v string) { b = append(binary.AppendUvarint(b, uint64(len(v))), v...) }
	put(int64(s.numRefs), int64(s.ngroups), int64(s.liveFrags), s.liveTerms, int64(s.liveKws), int64(s.epoch))
	for ref := FragRef(0); int(ref) < s.numRefs; ref++ {
		m := s.metaAt(ref)
		for _, v := range m.ID {
			b = relation.AppendValue(b, v)
		}
		put(m.Terms, int64(boolInt(m.Alive)), int64(s.gidAt(ref)), int64(s.posAt(ref)), int64(len(s.kwsAt(ref))))
		for _, kw := range s.kwsAt(ref) {
			str(kw)
		}
	}
	s.eachList(func(kw string, pl *postingList) {
		str(kw)
		put(int64(pl.n), int64(pl.dead), int64(math.Float64bits(pl.idf)), int64(len(pl.blocks)))
		for _, blk := range pl.blocks {
			put(int64(len(blk.ps)))
			for _, p := range blk.ps {
				put(int64(p.Frag), int64(p.TF))
			}
		}
	})
	for gid := int32(0); int(gid) < s.ngroups; gid++ {
		g := s.group(gid)
		str(g.key)
		put(int64(len(g.members)))
		for i, ref := range g.members {
			put(int64(ref), g.weights[i])
		}
	}
	for _, gs := range s.gshards {
		for i, key := range gs.keys {
			str(key)
			put(int64(gs.vals[i]))
		}
	}
	h.Write(b)
	return h.Sum64()
}
