// Package fragtest draws, replays the bookkeeping of, shrinks and prints
// the histories the fragment index's model checkers run. A history is plain
// data: a seed, which draws the corpus it starts from, and steps of
// fragment changes, each a group, a range value, a keyword→TF map and a
// total. The package imports nothing of fragindex, so the index's own
// in-package checker and the search package's checker replay the same
// histories. Only tests import it.
package fragtest

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/crawl"
)

// Config is what a history is drawn from.
type Config struct {
	Name   string
	Steps  int   // steps a history draws
	Corpus int   // fragments in place before the first step
	Bulk   bool  // a large corpus, drawn cheaply: one keyword a fragment, the keyword sets shared
	Lo     int64 // the lowest range value a new fragment draws
	// With Hot set, every drawn keyword set holds "hot" too unless
	// avoided, so its list spans several posting blocks. With Fresh set, a
	// third of the keyword sets also hold a keyword never drawn before, and
	// a quarter of the new fragments open a group of their own.
	Hot, Fresh bool
	Changes    int // changes a publish draws: 1…Changes (default 4), or exactly that many
	Exact      bool
	Kinds      string  // change kinds drawn, one letter a draw (see Model.change)
	Ops        string  // step kinds drawn, one letter a draw (see Gen)
	Ties       bool    // TFs of 1 or 2 over 4 keywords, not 1–3 over 12
	Totals     []int64 // the totals a fragment draws from; nil: the sum of its TFs
	Dups       bool    // range values from 0–5, fragments told apart by X
}

func (cfg Config) withDefaults() Config {
	if cfg.Changes == 0 {
		cfg.Changes = 4
	}
	if cfg.Kinds == "" {
		cfg.Kinds = "odglir"
	}
	if cfg.Ops == "" {
		cfg.Ops = "ppppppppppppRRtTfgds"
	}
	return cfg
}

// A History is one run of a checker: its configuration's name, the seed
// that draws its corpus, and its steps.
type History struct {
	Cfg   string
	Seed  int64
	Steps []Step
}

type StepOp int

const (
	Publish StepOp = iota // apply the changes as one publish
	Freeze                // publish a twin builder's state
	GC                    // a snapshot GC
	Restore               // serve a Restore of the serving Dump
	Split                 // a 2-way split of the serving state
)

type Step struct {
	Op      StepOp
	Changes []Change
}

// Change is one fragment change: Op is crawl's, the fragment is (G, V, X),
// and Terms is nil for a removal.
type Change struct {
	Op    crawl.ChangeOp
	G     string
	V, X  int64 // the range value, and a third selection attribute (0 unless Config.Dups)
	Terms map[string]int64
	Total int64
}

// Key names the fragment a change is on.
func (c Change) Key() string {
	return c.G + "/" + strconv.FormatInt(c.V, 10) + "/" + strconv.FormatInt(c.X, 10)
}

// String prints h as a Go literal for a checker's regressions list.
func (h History) String() string {
	ops := []string{"Publish", "Freeze", "GC", "Restore", "Split"}
	var b strings.Builder
	fmt.Fprintf(&b, "{Cfg: %q, Seed: %d, Steps: []fragtest.Step{\n", h.Cfg, h.Seed)
	for _, st := range h.Steps {
		chs := make([]string, len(st.Changes))
		for i, c := range st.Changes {
			s := fmt.Sprintf("{Op: crawl.Op%sFragment, G: %q, V: %d", []string{"", "Insert", "Remove", "Update"}[c.Op], c.G, c.V)
			if c.X != 0 {
				s += fmt.Sprintf(", X: %d", c.X)
			}
			if c.Terms != nil {
				s += fmt.Sprintf(", Terms: %#v, Total: %d", c.Terms, c.Total)
			}
			chs[i] = s + "}"
		}
		if fmt.Fprintf(&b, "\t{Op: fragtest.%s", ops[st.Op]); len(chs) > 0 {
			fmt.Fprintf(&b, ", Changes: []fragtest.Change{%s}", strings.Join(chs, ", "))
		}
		b.WriteString("},\n")
	}
	b.WriteString("}}")
	return b.String()
}

// Model is the reference a history runs against — the live fragments by
// key — and, while Gen draws a history, its generator.
type Model struct {
	cfg      Config
	r        *rand.Rand
	Frags    map[string]Change // live fragments by key, each as an insert
	Keys     []string          // Frags' keys, in an order the history determines
	at       map[string]int    // key → position in Keys
	nextV    int64
	inserted []string // keys the writer's mix inserted
}

// NewModel draws cfg's corpus from seed into a fresh model.
func NewModel(cfg Config, seed int64) *Model {
	cfg = cfg.withDefaults()
	m := &Model{cfg: cfg, r: rand.New(rand.NewSource(seed)), Frags: make(map[string]Change),
		at: make(map[string]int), nextV: cfg.Lo}
	var shared [12]map[string]int64
	for i := 0; len(m.Keys) < cfg.Corpus; i++ {
		if !cfg.Bulk {
			m.change('i', "", map[string]bool{})
			continue
		}
		if m.nextV++; i < len(shared) {
			shared[i] = map[string]int64{m.kw(i): int64(1 + i%3)}
		}
		terms := shared[i%len(shared)]
		m.Apply(Change{Op: crawl.OpInsertFragment, G: "g" + strconv.Itoa(i%3), V: m.nextV, Terms: terms, Total: sum(terms)})
	}
	return m
}

// Admits reports whether c applies to the model's fragments: an insert of
// an absent fragment, or another change to a live one.
func (m *Model) Admits(c Change) bool {
	_, ok := m.Frags[c.Key()]
	return ok == (c.Op != crawl.OpInsertFragment)
}

func (m *Model) Apply(c Change) {
	k := c.Key()
	i, ok := m.at[k]
	if c.Op != crawl.OpRemoveFragment {
		if !ok {
			m.at[k], m.Keys = len(m.Keys), append(m.Keys, k)
		}
		c.Op, m.Frags[k] = crawl.OpInsertFragment, c
	} else if ok {
		last := m.Keys[len(m.Keys)-1]
		m.Keys[i], m.at[last], m.Keys = last, i, m.Keys[:len(m.Keys)-1]
		delete(m.at, k)
		delete(m.Frags, k)
	}
}

func (m *Model) vocab() int {
	if m.cfg.Ties {
		return 4
	}
	return 12
}

func (m *Model) kw(i int) string { return "t" + strconv.Itoa(i%m.vocab()) }

func (m *Model) tf() int64 { return int64(1 + m.r.Intn(3-boolInt(m.cfg.Ties))) }

// terms draws a keyword set of up to 4 keywords, plus hot, none of them in
// avoid.
func (m *Model) terms(avoid map[string]int64) map[string]int64 {
	out := make(map[string]int64)
	for n, try := 1+m.r.Intn(4), 0; len(out) < n && try < 1000; try++ {
		if kw := m.kw(m.r.Intn(m.vocab())); avoid[kw] == 0 {
			out[kw] = m.tf()
		}
	}
	if m.cfg.Hot && avoid["hot"] == 0 {
		out["hot"] = m.tf()
	}
	if m.cfg.Fresh && m.r.Intn(3) == 0 {
		m.nextV++
		out["n"+strconv.FormatInt(m.nextV, 10)] = m.tf()
	}
	return out
}

// total is a new keyword set's total: the sum of its TFs, or one drawn from
// cfg.Totals.
func (m *Model) total(terms map[string]int64) int64 {
	if m.cfg.Totals == nil {
		return sum(terms)
	}
	return m.cfg.Totals[m.r.Intn(len(m.cfg.Totals))]
}

// newID draws a fragment no live one is: in one of three groups, or a new
// one; half the time past every range value drawn so far, half the time
// anywhere from cfg.Lo on — so inserts also land mid-group and re-insert
// removed fragments. With cfg.Dups the range value is drawn from 0–5 and
// a serial X tells the fragments apart.
func (m *Model) newID() (g string, v, x int64) {
	m.nextV++
	g, v = "g"+strconv.Itoa(m.r.Intn(3)), m.nextV
	if m.cfg.Dups {
		return g, int64(m.r.Intn(6)), v
	}
	if m.cfg.Fresh && m.r.Intn(4) == 0 {
		g = "g" + strconv.FormatInt(v, 10)
	}
	if w := m.cfg.Lo + m.r.Int63n(v-m.cfg.Lo+1); m.r.Intn(2) == 0 && m.Admits(Change{Op: crawl.OpInsertFragment, G: g, V: w}) {
		v = w
	}
	return g, v, 0
}

// pick returns a live fragment not in used, holding kw unless kw is empty;
// ok is false when there is none.
func (m *Model) pick(used map[string]bool, kw string) (f Change, ok bool) {
	for i, start := 0, m.r.Intn(len(m.Keys)+1); i < len(m.Keys) && !ok; i++ {
		k := m.Keys[(start+i)%len(m.Keys)]
		f = m.Frags[k]
		ok = !used[k] && (kw == "" || f.Terms[kw] > 0)
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
func (m *Model) change(kind byte, kw string, used map[string]bool) (Change, bool) {
	f, ok := m.pick(used, kw)
	c := Change{Op: crawl.OpUpdateFragment, G: f.G, V: f.V, X: f.X}
	switch kind {
	case 'i', 'I':
		c.Op, c.Terms, ok = crawl.OpInsertFragment, m.terms(map[string]int64{kw: 1}), true
		c.G, c.V, c.X = m.newID()
		if kw != "" {
			c.Terms[kw] = m.tf()
		} else if kind == 'I' && f.Terms != nil {
			c.Terms = f.Terms
		}
	case 'r':
		c.Op = crawl.OpRemoveFragment
	case 'E':
		if ok = len(m.inserted) > 0; ok {
			k := m.inserted[m.r.Intn(len(m.inserted))]
			f, ok = m.Frags[k]
			c = Change{Op: crawl.OpRemoveFragment, G: f.G, V: f.V, X: f.X}
			ok = ok && !used[k]
		}
	case 'W':
		d, _ := m.pick(map[string]bool{}, "")
		c.Terms = d.Terms
	case 'o':
		c.Terms = m.terms(nil)
		if old := sortedKeys(f.Terms); ok {
			kw := old[m.r.Intn(len(old))]
			c.Terms[kw] = 1 + f.Terms[kw]%(3-int64(boolInt(m.cfg.Ties)))
		}
	case 'd':
		c.Terms = m.terms(f.Terms)
	case 'g':
		if c.Terms = maps.Clone(f.Terms); ok {
			if add := sortedKeys(m.terms(f.Terms)); len(add) > 0 {
				c.Terms[add[0]] = 1
			}
		}
	case 'l':
		old := sortedKeys(f.Terms)
		if c.Terms, ok = maps.Clone(f.Terms), ok && len(old) > 1; ok {
			delete(c.Terms, old[0])
		}
	}
	if !ok {
		return Change{}, false
	}
	if c.Op != crawl.OpRemoveFragment {
		c.Total = m.total(c.Terms)
	}
	if used[c.Key()] = true; kind == 'I' {
		m.inserted = append(m.inserted, c.Key()) // used keeps this publish off it
	}
	m.Apply(c)
	return c, true
}

// Gen draws a history of cfg.Steps steps from seed. The step kinds, one
// letter of cfg.Ops a draw: 'p' a publish of cfg.Kinds changes, 'R' one of
// 1–3 removals, 't' a removal and an insert on one keyword in one publish,
// 'T' the same across two publishes, 'f' a Freeze, 'g' a snapshot GC, 'd'
// a Dump → Restore, 's' a 2-way split.
func Gen(cfg Config, seed int64) History {
	m := NewModel(cfg, seed)
	cfg = m.cfg
	h := History{Cfg: cfg.Name, Seed: seed}
	publish := func(chs ...Change) { h.Steps = append(h.Steps, Step{Op: Publish, Changes: chs}) }
	for len(h.Steps) < cfg.Steps {
		used := make(map[string]bool)
		var chs []Change
		switch op := cfg.Ops[m.r.Intn(len(cfg.Ops))]; op {
		case 'p', 'R':
			n, kinds := cfg.Changes, cfg.Kinds
			if !cfg.Exact {
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
			kw := m.kw(m.r.Intn(m.vocab()))
			if rm, ok := m.change('r', kw, used); ok {
				if chs = []Change{rm}; op == 'T' {
					publish(rm)
					chs = nil
				}
				ins, _ := m.change('i', kw, used)
				publish(append(chs, ins)...)
			}
		default:
			h.Steps = append(h.Steps, Step{Op: StepOp(strings.IndexByte(".fgds", op))})
		}
	}
	return h
}

// Shrink returns a shorter history that still fails, from h, which fails:
// it drops runs of steps, halving the run length down to one step, then
// single changes within the steps, and repeats both while either drops
// anything. A replay skips a change the model no longer admits.
func Shrink(h History, fails func(History) bool) History {
	for progress := true; progress; {
		progress = false
		for n := len(h.Steps) / 2; n >= 1; n /= 2 {
			for i := 0; i+n <= len(h.Steps); {
				try := h
				if try.Steps = slices.Delete(slices.Clone(h.Steps), i, i+n); fails(try) {
					h, progress = try, true
				} else {
					i += n
				}
			}
		}
		for i := range h.Steps {
			for j := 0; j < len(h.Steps[i].Changes); {
				try := h
				try.Steps = slices.Clone(h.Steps)
				if try.Steps[i].Changes = slices.Delete(slices.Clone(h.Steps[i].Changes), j, j+1); fails(try) {
					h, progress = try, true
				} else {
					j++
				}
			}
		}
	}
	return h
}

// Check replays the regressions of cfg (those named cfg.Name), then draws
// trials histories from seeds 0, 1, … and runs each; a failing one is
// shrunk and printed as a literal for the regressions list. run replays
// one history and counts the paths it reaches into hits; the histories
// must reach every path in reach.
func Check(t testing.TB, cfg Config, trials int, regressions []History, reach []string, run func(History, map[string]int) error) {
	t.Helper()
	hits := make(map[string]int)
	for _, h := range regressions {
		if h.Cfg != cfg.Name {
			continue
		}
		if err := run(h, hits); err != nil {
			t.Fatalf("regression %v\nfails: %v", h, err)
		}
	}
	for trial := 0; trial < trials; trial++ {
		h := Gen(cfg, int64(trial))
		if err := run(h, hits); err != nil {
			small := Shrink(h, func(h History) bool { return run(h, map[string]int{}) != nil })
			t.Fatalf("history %d fails: %v\nshrunk to %d of %d steps, for the regressions list:\n%v,\nwhich fails: %v",
				trial, err, len(small.Steps), len(h.Steps), small, run(small, map[string]int{}))
		}
	}
	for _, p := range reach {
		if hits[p] == 0 {
			t.Errorf("histories missed a path: %s", p)
		}
	}
}

func sum(terms map[string]int64) (n int64) {
	for _, tf := range terms {
		n += tf
	}
	return n
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func sortedKeys(m map[string]int64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
