package fragindex

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"go/parser"
	"hash/maphash"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/crawl"
	"repro/internal/fragment"
	"repro/internal/relation"
)

// The model checker of the fragment index. A history is data: a seed, which
// draws the corpus the history starts from, and steps drawn up front from
// one model (gen). run replays it through a LiveIndex, beside a twin
// builder that applies every update as a removal plus an insert, and runs
// one assertion set (checker.check) after every step. A failing history is
// shrunk (shrink) and printed as a literal for modelRegressions, which
// checkModel replays before it draws new histories. Each test below is one
// configuration: the corpus, the mix its histories are drawn from, and the
// paths they must reach.

func TestCoWIsolationRandomHistories(t *testing.T) {
	checkModel(t, modelConfig{name: "cow", trials: 6, steps: 50, corpus: 30, fresh: true,
		reach: []string{pathDropped, pathNewGroup, pathCompaction, pathGC, pathSharedTombstone}})
}

// A hot keyword in every keyword set spans several posting blocks.
func TestPostingBlocksRandomHistories(t *testing.T) {
	checkModel(t, modelConfig{name: "blocks", trials: 2, steps: 70, corpus: 500, hot: true, changes: 8,
		ops: "ppppppppppppppppppRg", reach: []string{pathLongList, pathSplit, pathGC}})
}

// Range values start negative and climb past zero: a key encodes an
// integer's two's complement, so fragment-key order — the order a Build
// adopts — disagrees with identifier order.
func TestDumpEquivalenceRandomHistories(t *testing.T) {
	checkModel(t, modelConfig{name: "dump", trials: 5, steps: 50, corpus: 30, lo: -40,
		ops: "ppppppdgss", reach: []string{pathGC, pathSplitShards}})
}

// Every configuration holds the in-place update equal to a twin's removal
// and insert; this one runs the serving writer's mix (BenchmarkFoldQ2's
// foldStream): 70 % updates carrying a donor's whole keyword set, 15 %
// inserts, 15 % removals of earlier inserts, 8 changes a publish.
func TestUpdateKeepsGroupSlot(t *testing.T) {
	checkModel(t, modelConfig{name: "writer", trials: 4, steps: 40, corpus: 60, changes: 8, exact: true,
		kinds: "WWWWWWWWWWWWWWIIIEEE", ops: "ppppfg", reach: []string{pathCompaction}})
	updateInBigGroup(t)
}

func TestPropIncrementalEqualsBatch(t *testing.T) {
	checkModel(t, modelConfig{name: "inserts", trials: 6, steps: 30, kinds: "i", ops: "ppf"})
}

func TestPropRandomInsertRemoveInvariants(t *testing.T) {
	checkModel(t, modelConfig{name: "churn", trials: 4, steps: 50, corpus: 10, kinds: "iir"})
}

func TestLiveCountersTrackMutations(t *testing.T) {
	checkModel(t, modelConfig{name: "counters", trials: 4, steps: 50, corpus: 10, fresh: true, kinds: "iirl"})
}

// A Restore of exactly the chunk table's inline first page (pageSize
// chunks of chunkSize refs): a publish opens the next page while the
// restored snapshot is held, and a later one copies that page.
func TestChunkTablePageBoundary(t *testing.T) {
	checkModel(t, modelConfig{name: "pages", trials: 1, steps: 2, corpus: pageSize * chunkSize, restore: true, ops: "p",
		reach: []string{pathChunkPageOpened, pathChunkPage}})
}

// TestShrinkHistory forces a failure — a Dump → Restore step while the
// serving index holds fewer fragments than its corpus — on a drawn history
// of 60 steps; the shrinker cuts it to a removal and the restore, printed
// as a literal that parses.
func TestShrinkHistory(t *testing.T) {
	cfg := modelConfig{name: "shrink", steps: 60, corpus: 30, fault: func(c *checker, st step) error {
		if st.op == opRestore && c.l.Snapshot().NumFragments() < 30 {
			return errors.New("restored fewer fragments than the corpus")
		}
		return nil
	}}.withDefaults()
	h := gen(cfg, 0)
	fails := func(h history) bool { return run(cfg, h, map[string]int{}) != nil }
	for ; !fails(h); h = gen(cfg, h.seed+1) {
	}
	small := shrink(h, fails)
	if _, err := parser.ParseExpr("[]history{" + small.String() + "}"); err != nil || len(small.steps) > 3 || !fails(small) {
		t.Fatalf("%d steps shrunk to %d (%v):\n%v", len(h.steps), len(small.steps), err, small)
	}
}

// modelRegressions are shrunk failing histories, replayed before any new
// history of their configuration is drawn. Both entries shrank from
// histories that failed while sortedDir.deleteAt deleted in place from
// keys its clones share.
var modelRegressions = []history{
	{cfg: "cow", seed: 0, steps: []step{
		{op: opPublish, changes: []change{{crawl.OpUpdateFragment, "g2", 5, map[string]int64{"t11": 1, "t6": 3, "t8": 3}}}},
	}},
	{cfg: "churn", seed: 1, steps: []step{
		{op: opPublish, changes: []change{{crawl.OpInsertFragment, "g0", 45, map[string]int64{"t4": 3, "t7": 2, "t8": 1}}}},
		{op: opPublish, changes: []change{{crawl.OpRemoveFragment, "g0", 45, map[string]int64(nil)}}},
	}},
}

type modelConfig struct {
	name          string
	trials, steps int   // histories, and steps in each
	corpus        int   // fragments in place before the first step
	restore       bool  // load the corpus by a Restore of its Dump, not by inserts
	lo            int64 // the lowest range value a new fragment draws
	hot, fresh    bool  // see cowModel
	changes       int   // changes a publish draws: 1…changes (default 4), or exactly that many
	exact         bool
	kinds         string                          // change kinds drawn, one letter a draw (see cowModel.change)
	ops           string                          // step kinds drawn, one letter a draw (see gen)
	reach         []string                        // paths the histories must reach
	fault         func(c *checker, st step) error // one more assertion, to test the checker
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

// checkModel replays cfg's regressions, then draws cfg.trials histories and
// runs each; a failing one is shrunk and printed. The histories must reach
// every path in cfg.reach.
func checkModel(t *testing.T, cfg modelConfig) {
	t.Parallel()
	cfg = cfg.withDefaults()
	hits := make(map[string]int)
	for _, h := range modelRegressions {
		if h.cfg != cfg.name {
			continue
		}
		if err := run(cfg, h, hits); err != nil {
			t.Fatalf("regression %v\nfails: %v", h, err)
		}
	}
	for trial := 0; trial < cfg.trials; trial++ {
		h := gen(cfg, int64(trial))
		if err := run(cfg, h, hits); err != nil {
			small := shrink(h, func(h history) bool { return run(cfg, h, map[string]int{}) != nil })
			t.Fatalf("history %d fails: %v\nshrunk to %d of %d steps, for modelRegressions:\n%v,\nwhich fails: %v",
				trial, err, len(small.steps), len(h.steps), small, run(cfg, small, map[string]int{}))
		}
	}
	for _, p := range cfg.reach {
		if hits[p] == 0 {
			t.Errorf("histories missed a path: %s", p)
		}
	}
}

func (cfg modelConfig) withDefaults() modelConfig {
	if cfg.changes == 0 {
		cfg.changes = 4
	}
	if cfg.kinds == "" {
		cfg.kinds = "odglir"
	}
	if cfg.ops == "" {
		cfg.ops = "ppppppppppppRRtTfgds"
	}
	return cfg
}

// A history is one run of the checker: its configuration's name, the seed
// that draws its corpus, and its steps.
type history struct {
	cfg   string
	seed  int64
	steps []step
}

type stepOp int

const (
	opPublish stepOp = iota // apply the changes through the LiveIndex as one publish
	opFreeze                // publish the twin builder's state
	opGC                    // a snapshot GC of the LiveIndex
	opRestore               // serve a Restore of the serving Dump
	opSplit                 // a 2-way NewShardedLive split of the serving builder
)

type step struct {
	op      stepOp
	changes []change
}

// change is one fragment change on cowSpec: op is crawl's, the fragment
// is (g, v), terms is nil for a removal, and the total term count is the
// sum of the TFs.
type change struct {
	op    crawl.ChangeOp
	g     string
	v     int64
	terms map[string]int64
}

func (c change) id() fragment.ID { return fragment.ID{relation.String(c.g), relation.Int(c.v)} }

func (c change) key() string { return c.id().Key() }

func total(terms map[string]int64) (n int64) {
	for _, tf := range terms {
		n += tf
	}
	return n
}

// String prints h as a Go literal for modelRegressions.
func (h history) String() string {
	ops := []string{"opPublish", "opFreeze", "opGC", "opRestore", "opSplit"}
	var b strings.Builder
	fmt.Fprintf(&b, "{cfg: %q, seed: %d, steps: []step{\n", h.cfg, h.seed)
	for _, st := range h.steps {
		chs := make([]string, len(st.changes))
		for i, c := range st.changes {
			chs[i] = fmt.Sprintf("{crawl.Op%sFragment, %q, %d, %#v}", []string{"", "Insert", "Remove", "Update"}[c.op], c.g, c.v, c.terms)
		}
		if fmt.Fprintf(&b, "\t{op: %s", ops[st.op]); len(chs) > 0 {
			fmt.Fprintf(&b, ", changes: []change{%s}", strings.Join(chs, ", "))
		}
		b.WriteString("},\n")
	}
	b.WriteString("}}")
	return b.String()
}

var cowSpec = Spec{SelAttrs: []string{"g", "v"}, EqAttrs: []string{"g"}, RangeAttr: "v"}

const cowVocab = 12

// cowModel is the reference a history runs against — the live fragments by
// key — and, while gen draws a history, its generator. With cfg.hot set,
// every drawn keyword set holds "hot" too unless avoided, so its list spans
// several posting blocks. With cfg.fresh set, a third of the keyword sets
// also hold a keyword never drawn before, and a quarter of the new
// fragments open a group of their own: the directories then gain keys
// between publishes, and a list whose one fragment goes away is dropped
// from a posting shard holding other keywords.
type cowModel struct {
	cfg      modelConfig
	r        *rand.Rand
	frags    map[string]change // live fragments by key, each as an insert
	keys     []string          // frags' keys, in an order the history determines
	at       map[string]int    // key → position in keys
	nextV    int64
	inserted []string // keys the writer's mix inserted
}

// newModel draws cfg's corpus from seed into a fresh model.
func newModel(cfg modelConfig, seed int64) *cowModel {
	m := &cowModel{cfg: cfg, r: rand.New(rand.NewSource(seed)), frags: make(map[string]change),
		at: make(map[string]int), nextV: cfg.lo}
	var shared [cowVocab]map[string]int64
	for i := 0; len(m.keys) < cfg.corpus; i++ {
		if !cfg.restore {
			m.change('i', "", map[string]bool{})
			continue
		}
		// A corpus to restore is large: one keyword a fragment, drawn
		// cheaply, the keyword sets shared (no change writes into one).
		if m.nextV++; i < cowVocab {
			shared[i] = map[string]int64{m.kw(i): int64(1 + i%3)}
		}
		m.apply(change{crawl.OpInsertFragment, "g" + strconv.Itoa(i%3), m.nextV, shared[i%cowVocab]})
	}
	return m
}

func (m *cowModel) admits(c change) bool {
	_, ok := m.frags[c.key()]
	return ok == (c.op != crawl.OpInsertFragment)
}

func (m *cowModel) apply(c change) {
	k := c.key()
	i, ok := m.at[k]
	if c.op != crawl.OpRemoveFragment {
		if !ok {
			m.at[k], m.keys = len(m.keys), append(m.keys, k)
		}
		c.op, m.frags[k] = crawl.OpInsertFragment, c
	} else if ok {
		last := m.keys[len(m.keys)-1]
		m.keys[i], m.at[last], m.keys = last, i, m.keys[:len(m.keys)-1]
		delete(m.at, k)
		delete(m.frags, k)
	}
}

func (m *cowModel) kw(i int) string { return "t" + strconv.Itoa(i%cowVocab) }

// terms draws a keyword set of 1–4 keywords, plus hot, none of them in
// avoid.
func (m *cowModel) terms(avoid map[string]int64) map[string]int64 {
	out := make(map[string]int64)
	for n := 1 + m.r.Intn(4); len(out) < n; {
		if kw := m.kw(m.r.Intn(cowVocab)); avoid[kw] == 0 {
			out[kw] = int64(1 + m.r.Intn(3))
		}
	}
	if m.cfg.hot && avoid["hot"] == 0 {
		out["hot"] = int64(1 + m.r.Intn(3))
	}
	if m.cfg.fresh && m.r.Intn(3) == 0 {
		m.nextV++
		out["n"+strconv.FormatInt(m.nextV, 10)] = int64(1 + m.r.Intn(3))
	}
	return out
}

// newID draws a fragment no live one is: in one of three groups, or a new
// one; half the time past every range value drawn so far, half the time
// anywhere from cfg.lo on — so inserts also land mid-group and re-insert
// removed fragments.
func (m *cowModel) newID() (string, int64) {
	m.nextV++
	g, v := "g"+strconv.Itoa(m.r.Intn(3)), m.nextV
	if m.cfg.fresh && m.r.Intn(4) == 0 {
		g = "g" + strconv.FormatInt(v, 10)
	}
	if w := m.cfg.lo + m.r.Int63n(v-m.cfg.lo+1); m.r.Intn(2) == 0 && m.admits(change{op: crawl.OpInsertFragment, g: g, v: w}) {
		v = w
	}
	return g, v
}

// pick returns a live fragment not in used, holding kw unless kw is empty;
// ok is false when there is none.
func (m *cowModel) pick(used map[string]bool, kw string) (f change, ok bool) {
	for i, start := 0, m.r.Intn(len(m.keys)+1); i < len(m.keys) && !ok; i++ {
		k := m.keys[(start+i)%len(m.keys)]
		f = m.frags[k]
		ok = !used[k] && (kw == "" || f.terms[kw] > 0)
	}
	return f, ok
}

// change draws one change of the given kind on a fragment not in used,
// holding kw unless kw is empty; it applies the change to the model and
// adds the fragment to used. The kinds: 'o' an update keeping one keyword
// at a new TF and drawing the rest afresh, 'd' one with a disjoint keyword
// set, 'g' gaining a keyword, 'l' losing one; 'i' an insert, 'r' a
// removal; and the writer's mix — 'W' an update carrying a donor's whole
// keyword set, 'I' an insert carrying one, 'E' the removal of a fragment
// 'I' inserted in an earlier publish.
func (m *cowModel) change(kind byte, kw string, used map[string]bool) (change, bool) {
	f, ok := m.pick(used, kw)
	c := change{op: crawl.OpUpdateFragment, g: f.g, v: f.v}
	switch kind {
	case 'i', 'I':
		c.op, c.terms, ok = crawl.OpInsertFragment, m.terms(map[string]int64{kw: 1}), true
		c.g, c.v = m.newID()
		if kw != "" {
			c.terms[kw] = int64(1 + m.r.Intn(3))
		} else if kind == 'I' && f.terms != nil {
			c.terms = f.terms
		}
	case 'r':
		c.op = crawl.OpRemoveFragment
	case 'E':
		if ok = len(m.inserted) > 0; ok {
			k := m.inserted[m.r.Intn(len(m.inserted))]
			f, ok = m.frags[k]
			c = change{op: crawl.OpRemoveFragment, g: f.g, v: f.v}
			ok = ok && !used[k]
		}
	case 'W':
		d, _ := m.pick(map[string]bool{}, "")
		c.terms = d.terms
	case 'o':
		c.terms = m.terms(nil)
		if old := sortedKeys(f.terms); ok {
			kw := old[m.r.Intn(len(old))]
			c.terms[kw] = 1 + f.terms[kw]%3
		}
	case 'd':
		c.terms = m.terms(f.terms)
	case 'g':
		if c.terms = maps.Clone(f.terms); ok {
			c.terms[sortedKeys(m.terms(f.terms))[0]] = 1
		}
	case 'l':
		old := sortedKeys(f.terms)
		if c.terms, ok = maps.Clone(f.terms), ok && len(old) > 1; ok {
			delete(c.terms, old[0])
		}
	}
	if !ok {
		return change{}, false
	}
	if used[c.key()] = true; kind == 'I' {
		m.inserted = append(m.inserted, c.key()) // used keeps this publish off it
	}
	m.apply(c)
	return c, true
}

// gen draws a history of cfg.steps steps from seed. The step kinds, one
// letter of cfg.ops a draw: 'p' a publish of cfg.kinds changes, 'R' one of
// 1–3 removals, 't' a removal and an insert on one keyword in one publish,
// 'T' the same across two publishes, 'f' a Freeze, 'g' a snapshot GC, 'd'
// a Dump → Restore, 's' a 2-way split.
func gen(cfg modelConfig, seed int64) history {
	m := newModel(cfg, seed)
	h := history{cfg: cfg.name, seed: seed}
	publish := func(chs ...change) { h.steps = append(h.steps, step{op: opPublish, changes: chs}) }
	for len(h.steps) < cfg.steps {
		used := make(map[string]bool)
		var chs []change
		switch op := cfg.ops[m.r.Intn(len(cfg.ops))]; op {
		case 'p', 'R':
			n, kinds := cfg.changes, cfg.kinds
			if !cfg.exact {
				n = 1 + m.r.Intn(n)
			}
			if op == 'R' {
				n, kinds = 1+m.r.Intn(3), "r"
			}
			for try := 0; len(chs) < n && try < 4*n; try++ {
				if c, ok := m.change(kinds[m.r.Intn(len(kinds))], "", used); ok {
					chs = append(chs, c)
				}
			}
			publish(chs...)
		case 't', 'T':
			kw := m.kw(m.r.Intn(cowVocab))
			if rm, ok := m.change('r', kw, used); ok {
				if chs = []change{rm}; op == 'T' {
					publish(rm)
					chs = nil
				}
				ins, _ := m.change('i', kw, used)
				publish(append(chs, ins)...)
			}
		default:
			h.steps = append(h.steps, step{op: stepOp(strings.IndexByte(".fgds", op))})
		}
	}
	return h
}

// shrink returns a shorter history that still fails, from h, which fails:
// it drops runs of steps, halving the run length down to one step, then
// single changes within the steps, and repeats both while either drops
// anything. run skips a change the model no longer admits.
func shrink(h history, fails func(history) bool) history {
	for progress := true; progress; {
		progress = false
		for n := len(h.steps) / 2; n >= 1; n /= 2 {
			for i := 0; i+n <= len(h.steps); {
				try := h
				if try.steps = slices.Delete(slices.Clone(h.steps), i, i+n); fails(try) {
					h, progress = try, true
				} else {
					i += n
				}
			}
		}
		for i := range h.steps {
			for j := 0; j < len(h.steps[i].changes); {
				try := h
				try.steps = slices.Clone(h.steps)
				if try.steps[i].changes = slices.Delete(slices.Clone(h.steps[i].changes), j, j+1); fails(try) {
					h, progress = try, true
				} else {
					j++
				}
			}
		}
	}
	return h
}

// checker is the state of one run: the model, the LiveIndex under test, the
// twin builder, the published snapshots it holds with their fingerprints at
// publish, and the paths reached.
type checker struct {
	cfg  modelConfig
	m    *cowModel
	l    *LiveIndex
	twin *Index
	held []*Snapshot
	sums []uint64
	hits map[string]int
}

// run replays h on cfg's corpus and returns the first failed assertion; a
// panic fails too.
func run(cfg modelConfig, h history, hits map[string]int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	c := &checker{cfg: cfg, m: newModel(cfg, h.seed), hits: hits}
	var corpus *Dump
	if cfg.restore {
		b, err := Build(c.m.output(nil), cowSpec)
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
		for _, k := range c.m.keys {
			if _, err := idx.InsertFragment(c.m.frags[k].id(), c.m.frags[k].terms, total(c.m.frags[k].terms)); err != nil {
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
	for i, st := range h.steps {
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

func (c *checker) step(st step) error {
	switch st.op {
	case opPublish:
		return c.publish(st.changes)
	case opFreeze:
		c.hold(c.twin.Freeze())
		return nil
	case opSplit:
		// A split of n > 1 only reads the builder it is handed.
		sl, err := NewShardedLive(c.l.builder, 2)
		if err != nil {
			return err
		}
		c.hits[pathSplitShards]++
		for si := 0; si < 2; si++ {
			want, err := Build(c.m.output(func(id fragment.ID) bool {
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
	case opGC:
		before := c.l.Dump()
		if ran, err := c.l.CompactIfNeeded(context.Background(), 0); err != nil || !ran {
			return err
		}
		c.hits[pathGC]++
		if s := c.l.Snapshot(); s.NumRefs() != s.NumFragments() || !reflect.DeepEqual(c.l.Dump(), withEpoch(before, before.Epoch+1)) {
			return errors.New("the GC left tombstones or changed the dumped state")
		}
	case opRestore:
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
func (c *checker) publish(changes []change) error {
	var d crawl.Delta
	removals := true
	for _, ch := range changes {
		if c.m.admits(ch) {
			c.m.apply(ch)
			d.Changes = append(d.Changes, crawl.FragmentChange{Op: ch.op, ID: ch.id(), TermCounts: ch.terms, TotalTerms: total(ch.terms)})
			removals = removals && ch.op == crawl.OpRemoveFragment
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
func (c *checker) check(st step) error {
	if err := c.checkHeld(len(c.held) - 4); err != nil {
		return err
	}
	s := c.l.Snapshot()
	d := s.dump(nil)
	if r, err := Restore(d); err != nil || !reflect.DeepEqual(r.Dump(), d) {
		return fmt.Errorf("Restore(d).Dump() differs from d (%v)", err)
	}
	b, err := Build(c.m.output(nil), cowSpec)
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
func (m *cowModel) output(keep func(fragment.ID) bool) *crawl.Output {
	out := &crawl.Output{SelAttrs: cowSpec.SelAttrs, FragmentTerms: make(map[string]int64),
		Inverted: make(map[string][]crawl.Posting)}
	for key, f := range m.frags {
		if keep == nil || keep(f.id()) {
			out.FragmentTerms[key] = total(f.terms)
			for kw, tf := range f.terms {
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

func sortedKeys(m map[string]int64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
