package search

import (
	"context"
	"errors"
	"fmt"
	"go/parser"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/crawl"
	"repro/internal/fragindex"
	"repro/internal/fragindex/fragtest"
	"repro/internal/fragment"
	"repro/internal/relation"
)

// The search checker replays the fragment index checker's histories
// (fragtest) through a LiveIndex at S = 1 or a ShardedLiveIndex at S ≥ 2,
// taking publishes, snapshot GCs, Dump → Restores and 2-way splits as they
// come, and after every step checks the fragments served against the
// model and every answer against the reference (searchRun.check). A failing
// history is shrunk and printed as a literal for searchRegressions. Each
// configuration is a test.

// searchRegressions are shrunk failing histories, replayed before any new
// history of their configuration is drawn.
var searchRegressions []fragtest.History

type searchConfig struct {
	fragtest.Config
	trials int
	shards []int                                  // the shard counts each history is replayed at
	reach  []string                               // paths the histories must reach
	fault  func(c *searchRun, got []Result) error // one more assertion on every answer, to test the checker
}

// The paths a configuration can require its histories to reach.
const (
	pathProbes   = "a TF probe"
	pathTables   = "a tabulated posting"
	pathSplit    = "a search after a 2-way split"
	pathRestore  = "a search after a Restore"
	pathGC       = "a search after a GC with tombstones"
	pathZeroSize = "a size-0 fragment"
	pathCut      = "a CandidateLimit cut"
	pathUncut    = "a CandidateLimit at or above a list's length"
	pathRejected = "a RequireAll rejection"
	pathGrown    = "a ref space 20 times the corpus's"
	pathWide     = "a query of more than maxTables keywords"
)

// fixedQueries are asked after every step, beside the drawn ones.
var fixedQueries = []Request{
	{Keywords: []string{"t0"}, K: 3, SizeThreshold: 8},
	{Keywords: []string{"t1", "t2"}, K: 1 << 30, SizeThreshold: 20, RequireAll: true},
	{Keywords: []string{"t3", "t0", "hot"}, K: 5, SizeThreshold: 1, CandidateLimit: 2, AllowOverlap: true},
	{Keywords: []string{"absent"}, K: 3, SizeThreshold: 20},
	{Keywords: []string{"t0", "t1", "t2", "t3", "t4", "t5"}, K: 10, SizeThreshold: 30},
}

func checkSearch(t *testing.T, cfg searchConfig) {
	t.Parallel()
	if cfg.fault == nil {
		cfg.fault = func(*searchRun, []Result) error { return nil }
	}
	fragtest.Check(t, cfg.Config, cfg.trials, searchRegressions, cfg.reach, func(h fragtest.History, hits map[string]int) error {
		for _, s := range cfg.shards {
			if err := replay(t, cfg, s, h, hits); err != nil {
				return fmt.Errorf("S=%d: %w", s, err)
			}
		}
		return nil
	})
}

// searchRun is the state of one replay: the model, the index served, the
// engines over it, the first and the previous step's pinned views with
// their answers, and the paths reached.
type searchRun struct {
	t     *testing.T
	cfg   searchConfig
	r     *rand.Rand
	m     *fragtest.Model
	sl    *fragindex.ShardedLiveIndex
	e     *Engine // searches every single snapshot of the run
	se    *ShardedEngine
	first *view
	held  *view
	after string // the path the last step took, if any
	start int    // the corpus's refs
	hits  map[string]int
}

// view is a pinned read view: its search, and the requests it answered.
type view struct {
	search  func(context.Context, Request) ([]Result, error)
	reqs    []Request
	answers [][]Result
}

// id is a change's fragment on tieSpec.
func id(c fragtest.Change) fragment.ID {
	return fragment.ID{relation.String(c.G), relation.Int(c.V), relation.Int(c.X)}
}

// replay runs h at S = shards and returns the first failed check; a panic
// fails too.
func replay(t *testing.T, cfg searchConfig, shards int, h fragtest.History, hits map[string]int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	m := fragtest.NewModel(cfg.Config, h.Seed)
	idx, err := build(m)
	if err != nil {
		return err
	}
	c := &searchRun{t: t, cfg: cfg, r: rand.New(rand.NewSource(h.Seed)), m: m, e: New(idx, nil), start: idx.NumRefs(), hits: hits}
	if c.sl, err = fragindex.NewShardedLive(idx, shards); err != nil {
		return err
	}
	c.serve(c.sl)
	for i, st := range h.Steps {
		if c.after, err = c.step(m, st); err != nil {
			return fmt.Errorf("step %d %v: %w", i, st, err)
		}
		if err := c.check(); err != nil {
			return fmt.Errorf("after step %d %v: %w", i, st, err)
		}
	}
	return nil
}

// build indexes the model's live fragments, in its key order.
func build(m *fragtest.Model) (*fragindex.Index, error) {
	idx, err := fragindex.New(tieSpec)
	for _, k := range m.Keys {
		if f := m.Frags[k]; err == nil {
			_, err = idx.InsertFragment(id(f), f.Terms, f.Total)
		}
	}
	return idx, err
}

// serve makes sl the index served, with a sharded engine over it at S ≥ 2.
func (c *searchRun) serve(sl *fragindex.ShardedLiveIndex) {
	if c.sl = sl; sl.NumShards() > 1 {
		c.se = NewSharded(sl, nil)
	}
}

// step applies st to the served index and returns the path it took.
func (c *searchRun) step(m *fragtest.Model, st fragtest.Step) (string, error) {
	ctx := context.Background()
	switch st.Op {
	case fragtest.Publish:
		var d crawl.Delta
		for _, ch := range st.Changes {
			if m.Admits(ch) {
				m.Apply(ch)
				d.Changes = append(d.Changes, crawl.FragmentChange{Op: ch.Op, ID: id(ch), TermCounts: ch.Terms, TotalTerms: ch.Total})
			}
		}
		if len(d.Changes) > 0 {
			_, err := c.sl.Apply(ctx, d)
			return "", err
		}
	case fragtest.GC:
		dead := 0
		for _, s := range c.sl.PinAll() {
			dead += s.NumRefs() - s.NumFragments()
		}
		if _, err := c.sl.CompactIfNeeded(ctx, 0); dead > 0 || err != nil {
			return pathGC, err
		}
	case fragtest.Restore:
		bs := make([]*fragindex.Index, c.sl.NumShards())
		for i := range bs {
			var err error
			if bs[i], err = fragindex.Restore(c.sl.Shard(i).Dump()); err != nil {
				return "", err
			}
		}
		sl, err := fragindex.NewShardedLiveFrom(bs)
		if err == nil {
			c.serve(sl)
		}
		return pathRestore, err
	case fragtest.Split:
		flat, err := flatten(c.sl, c.sl.PinAll())
		if err == nil {
			var sl *fragindex.ShardedLiveIndex
			if sl, err = fragindex.NewShardedLive(flat, 2); err == nil {
				c.serve(sl)
			}
		}
		return pathSplit, err
	}
	return "", nil
}

// check holds the fragments served — the snapshot at S = 1, one index of
// the shards' fragments (flatten) at S ≥ 2 — to the model's, identifier,
// terms and total each. It asks the served view the fixed and the drawn
// queries, and each answer must equal the naive reference's (refSearch)
// over those fragments byte for byte. It re-asks the first and the
// previous step's pinned views, which must answer as they did, runs a
// cancelled search and an invalid request, and requires every search to
// leave its scratch clean.
func (c *searchRun) check() error {
	ctx := context.Background()
	pinned := c.sl.PinAll()
	ref, e, dump := pinned[0], &c.e.core, c.sl.Shard(0).Dump
	v := &view{search: func(ctx context.Context, req Request) ([]Result, error) {
		return c.e.SearchSnapshot(ctx, pinned[0], req)
	}}
	if len(pinned) > 1 {
		flat, err := flatten(c.sl, pinned)
		if err != nil {
			return err
		}
		ref, e, dump = flat.Snapshot(), &c.se.core, flat.Dump
		sl, se := c.sl, c.se
		v.search = func(ctx context.Context, req Request) ([]Result, error) {
			res, err := se.SearchPinned(ctx, pinned, req)
			if err == nil {
				err = singleRefs(sl, pinned, ref, res)
			}
			return res, err
		}
	} else if ref.NumRefs() >= 20*c.start {
		c.hits[pathGrown]++
	}
	if c.after != "" {
		c.hits[c.after]++
	}
	model, err := build(c.m)
	if err != nil {
		return err
	}
	got, want := dump(), model.Dump()
	if want.Epoch = got.Epoch; !reflect.DeepEqual(got, want) {
		return fmt.Errorf("the fragments served differ from the model's\n served %+v\n model  %+v", got, want)
	}
	v.reqs = append(slices.Clone(fixedQueries), c.draw(ref.Keywords())...)
	for _, req := range v.reqs {
		before := e.SeedStats()
		got, err := v.search(ctx, req)
		if err != nil {
			return fmt.Errorf("%+v: %w", req, err)
		}
		if want := refSearch(c.t, ref, req, c.hits); len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
			return fmt.Errorf("%+v: engine and reference disagree\n engine    %+v\n reference %+v", req, got, want)
		}
		if err := errors.Join(c.seeding(req, pinned, before, e.SeedStats()), scratchErr(retainedScratch(c.t, e, "search checker")), c.cfg.fault(c, got)); err != nil {
			return fmt.Errorf("%+v: %w", req, err)
		}
		v.answers = append(v.answers, got)
	}
	for _, old := range []*view{c.first, c.held} {
		for i := 0; old != nil && i < len(old.reqs); i++ {
			if got, err := old.search(ctx, old.reqs[i]); err != nil || !reflect.DeepEqual(got, old.answers[i]) {
				return fmt.Errorf("%+v: an earlier step's pinned view answers differently now (%v)", old.reqs[i], err)
			}
		}
	}
	if c.held = v; c.first == nil {
		c.first = v
	}
	req := v.reqs[c.r.Intn(len(v.reqs))]
	if _, err := v.search(newErrAfter(int64(c.r.Intn(8))), req); err != nil && !errors.Is(err, errDeadline) {
		return fmt.Errorf("%+v, cancelled: %w", req, err)
	}
	if _, err := v.search(ctx, Request{Keywords: req.Keywords}); !errors.Is(err, ErrBadK) {
		return fmt.Errorf("K = 0: err = %v", err)
	}
	return scratchErr(retainedScratch(c.t, e, "search checker"))
}

// seeding counts the TF probes and tabulated postings of one search, and
// holds a query of more than maxTables keywords to reading every list at
// open: exactly the postings a Next then Block walk of each pinned list
// hands out — every block as it lies, tombstones included, but those Next
// skips before a block's first live posting — counted as one search that
// read every list, and no TF table.
func (c *searchRun) seeding(req Request, pinned []*fragindex.Snapshot, before, st SeedStats) error {
	c.hits[pathProbes] += int(st.Probes - before.Probes)
	c.hits[pathTables] += int(st.Tabulated - before.Tabulated)
	kws, n := normalizeKeywords(nil, req.Keywords), 0
	if len(kws) <= maxTables {
		return nil
	}
	for _, s := range pinned {
		for _, kw := range kws {
			cur, _ := s.Cursor(kw)
			for _, _, ok := cur.Next(); ok; _, _, ok = cur.Next() {
				n += 1 + len(cur.Block())
			}
		}
	}
	if c.hits[pathWide]++; st.Drains != before.Drains+1 || st.Postings-before.Postings != uint64(n) || st.Probes+st.Tabulated != before.Probes+before.Tabulated {
		return fmt.Errorf("read %d postings of %d, %d TF probes, %d tabulated; want every posting, no table",
			st.Postings-before.Postings, n, st.Probes-before.Probes, st.Tabulated-before.Tabulated)
	}
	return nil
}

// draw draws four requests: 1–3 of the live keywords kws, K truncating or
// exhaustive, CandidateLimit off, 1–5 or 1–60 (past a tie band's end, so
// a cut's quickselect may keep all of a band), RequireAll and
// AllowOverlap a third of the time each.
func (c *searchRun) draw(kws []string) []Request {
	if len(kws) == 0 {
		return nil
	}
	out := make([]Request, 4)
	for i := range out {
		out[i] = Request{
			K:              []int{1, 3, 10, 1 << 30}[c.r.Intn(4)],
			SizeThreshold:  []int{1, 8, 20, 60, 10000}[c.r.Intn(5)],
			CandidateLimit: []int{0, 1 + c.r.Intn(5), 1 + c.r.Intn(60)}[c.r.Intn(3)],
			RequireAll:     c.r.Intn(3) == 0,
			AllowOverlap:   c.r.Intn(3) == 0,
		}
		for n := 1 + c.r.Intn(3); n > 0; n-- {
			out[i].Keywords = append(out[i].Keywords, kws[c.r.Intn(len(kws))])
		}
	}
	return out
}

// flatten builds one index of the pinned shards' live fragments, each
// group path in its shard's order: an insert goes before the members of
// its range value, so each path is inserted last member first. (A Restore
// would order a group's duplicate range values by identifier, where the
// shards keep the order their history inserted them in.)
func flatten(sl *fragindex.ShardedLiveIndex, snaps []*fragindex.Snapshot) (*fragindex.Index, error) {
	idx, err := fragindex.New(snaps[0].Spec())
	for si, s := range snaps {
		terms := make(map[fragindex.FragRef]map[string]int64)
		for _, kw := range s.Keywords() {
			for _, p := range s.Postings(kw) {
				if terms[p.Frag] == nil {
					terms[p.Frag] = make(map[string]int64)
				}
				terms[p.Frag][kw] = int64(p.TF)
			}
		}
		for ref := fragindex.FragRef(0); err == nil && int(ref) < s.NumRefs(); ref++ {
			// Each path once, from its last member; a removed ref has none.
			members, weights, _, pos, _ := s.GroupPath(ref)
			for i := len(members) - 1; i >= 0 && pos == len(members)-1 && err == nil; i-- {
				m, _ := s.Meta(members[i])
				if _, err = idx.InsertFragment(m.ID, terms[members[i]], weights[i]); err == nil {
					if to, _ := sl.ShardFor(m.ID); to != si {
						err = fmt.Errorf("%v lies in shard %d; it routes to shard %d", m.ID, si, to)
					}
				}
			}
		}
	}
	return idx, err
}

// singleRefs rewrites a sharded answer's fragments, refs of the pinned
// shard snapshot its page was assembled in, as refs of one, a single
// index over the same fragments.
func singleRefs(sl *fragindex.ShardedLiveIndex, snaps []*fragindex.Snapshot, one *fragindex.Snapshot, res []Result) error {
	attrs := sl.Spec().SelAttrs
	for _, r := range res {
		id := make(fragment.ID, len(attrs))
		for i, a := range attrs {
			var ok bool
			if id[i], ok = r.EqValues[a]; !ok {
				id[i] = r.RangeLo // routing reads only the equality values
			}
		}
		si, err := sl.ShardFor(id)
		if err != nil {
			return err
		}
		for i, f := range r.Fragments {
			m, err := snaps[si].Meta(f)
			ref, ok := one.Lookup(m.ID)
			if err != nil || !ok {
				return fmt.Errorf("shard %d's ref %d is no fragment of the single index (%v)", si, f, err)
			}
			r.Fragments[i] = ref
		}
	}
	return nil
}

// TestShrinkSearchHistory forces a search failure, a merged page after a GC
// that dropped tombstones, on a drawn history of 40 steps: it must shrink to
// a change that leaves a tombstone and the GC, printed as a parsable literal.
func TestShrinkSearchHistory(t *testing.T) {
	cfg := searchConfig{Config: fragtest.Config{Name: "shrink", Steps: 40, Corpus: 30}, shards: []int{1},
		fault: func(c *searchRun, got []Result) error {
			if c.after == pathGC && slices.ContainsFunc(got, func(r Result) bool { return len(r.Fragments) > 1 }) {
				return errors.New("a merged page after a GC")
			}
			return nil
		}}
	fails := func(h fragtest.History) bool { return replay(t, cfg, 1, h, map[string]int{}) != nil }
	h := fragtest.Gen(cfg.Config, 0)
	for ; !fails(h); h = fragtest.Gen(cfg.Config, h.Seed+1) {
	}
	small := fragtest.Shrink(h, fails)
	if _, err := parser.ParseExpr("[]fragtest.History{" + small.String() + "}"); err != nil || len(small.Steps) > 3 || !fails(small) {
		t.Fatalf("%d steps shrunk to %d (%v):\n%v", len(h.Steps), len(small.Steps), err, small)
	}
}
