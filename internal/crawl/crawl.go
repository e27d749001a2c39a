// Package crawl implements Dash's database crawling and fragment indexing
// (paper §V): deriving every db-page fragment of a parameterized PSJ query
// from the underlying database and indexing fragment contents, as MapReduce
// workflows.
//
// Two algorithms are provided. Stepwise (§V-A) joins the operand relations
// with one MR job per join-tree node — carrying the (bulky) projection
// attributes through every join — then groups joined records into fragments
// and indexes them. Integrated (§V-B) first computes per-relation aggregates
// (selection attributes, join attributes, record count θ), joins only those
// narrow aggregates to learn each fragment's composition, then extracts
// keywords directly from base relations with multiplicities
// Θi = (Πθx)/θi, and finally consolidates per-keyword counts. Both produce
// identical output; the difference is how many bytes move between phases,
// which the per-phase metrics expose (Fig. 10).
package crawl

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/fragment"
	"repro/internal/mapreduce"
	"repro/internal/psj"
	"repro/internal/relation"
)

// Algorithm names the crawling strategy.
type Algorithm string

// The two crawling/indexing algorithms of §V.
const (
	AlgStepwise   Algorithm = "stepwise"
	AlgIntegrated Algorithm = "integrated"
)

// Options configures a crawl run.
type Options struct {
	// Parallelism bounds concurrent tasks per phase (default GOMAXPROCS).
	Parallelism int
	// MapTasks and ReduceTasks per MR job (default Parallelism). The
	// paper's cluster-size sensitivity experiment varies ReduceTasks.
	MapTasks    int
	ReduceTasks int
}

func (o Options) apply(job *mapreduce.Job) {
	job.Parallelism = o.Parallelism
	job.MapTasks = o.MapTasks
	job.ReduceTasks = o.ReduceTasks
}

// Posting is one inverted-list entry: a fragment and the keyword's
// occurrence count in it.
type Posting struct {
	FragKey string
	TF      int64
}

// Phase is one named stage of a crawl with its aggregated MR metrics —
// the stacked bars of Fig. 10 (SW-Jn/SW-Grp/SW-Idx, INT-Jn/INT-Ext/INT-Cnsd).
type Phase struct {
	Name    string
	Metrics mapreduce.Metrics
}

// Output is the crawl result: fragment sizes and the inverted fragment
// index content, plus phase metrics. It is the input to fragindex.Build.
type Output struct {
	Algorithm Algorithm
	// SelAttrs are the selection attribute column names, in WHERE order;
	// fragment keys encode value tuples in this order.
	SelAttrs []string
	// FragmentTerms maps fragment key -> total keyword count (the node
	// weights of the fragment graph, Fig. 9).
	FragmentTerms map[string]int64
	// Inverted maps keyword -> postings sorted by TF descending, ties
	// broken by fragment identifier order, as in Fig. 6. The order is made
	// once, as the output is assembled (sortInverted): the MapReduce jobs
	// before that emit postings in no particular order.
	Inverted map[string][]Posting
	Phases   []Phase
}

// Fragments returns the fragment identifiers sorted by identifier order.
func (o *Output) Fragments() ([]fragment.ID, error) {
	ids := make([]fragment.ID, 0, len(o.FragmentTerms))
	for k := range o.FragmentTerms {
		id, err := fragment.ParseID(k)
		if err != nil {
			return nil, err
		}
		ids = append(ids, id)
	}
	slices.SortFunc(ids, fragment.ID.Compare)
	return ids, nil
}

// TotalWall sums the wall time of all phases.
func (o *Output) TotalWall() (total int64) {
	for _, p := range o.Phases {
		total += int64(p.Metrics.Wall)
	}
	return total
}

// Reference derives the same output without MapReduce: evaluate the crawl
// query with the relational engine and fragment.Derive. It is the oracle
// the MR algorithms are tested against, and the natural choice for small
// embedded deployments.
func Reference(db *relation.Database, b *psj.Bound) (*Output, error) {
	joined, err := b.JoinAll(db)
	if err != nil {
		return nil, err
	}
	crawlCols := b.CrawlProjection()
	proj, err := joined.Project(crawlCols)
	if err != nil {
		return nil, err
	}
	projIdx, selIdx := fragment.Indices(proj.Schema, b.Projections, b.SelAttrs)
	// A NULL selection attribute satisfies no comparison, so such records
	// appear in no db-page and belong to no fragment.
	rows := proj.Select(func(r relation.Row) bool {
		for _, j := range selIdx {
			if r[j].IsNull() {
				return false
			}
		}
		return true
	}).Rows
	frags := fragment.Derive(rows, projIdx, selIdx)

	out := &Output{
		Algorithm:     "reference",
		SelAttrs:      append([]string(nil), b.SelAttrs...),
		FragmentTerms: make(map[string]int64, len(frags)),
		Inverted:      make(map[string][]Posting),
	}
	for _, f := range frags {
		key := f.ID.Key()
		out.FragmentTerms[key] = int64(f.TotalTerms)
		for kw, n := range f.TermCounts {
			out.Inverted[kw] = append(out.Inverted[kw], Posting{FragKey: key, TF: int64(n)})
		}
	}
	if err := sortInverted(out); err != nil {
		return nil, err
	}
	return out, nil
}

// sortInverted sorts each inverted list once, by TF descending and then
// fragment identifier order — the semantic ordering fragindex uses, not raw
// key bytes: varint length prefixes would invert it. The fragments are
// parsed and ranked once, so the sorts compare integers. A key that does
// not parse, or a posting naming a fragment FragmentTerms lacks, is corrupt.
func sortInverted(out *Output) error {
	ids, err := out.Fragments()
	if err != nil {
		return fmt.Errorf("%w: fragment key: %v", ErrCorruptPosting, err)
	}
	keys := make([]string, len(ids))
	rank := make(map[string]int, len(ids))
	for i, id := range ids {
		keys[i] = id.Key()
		rank[keys[i]] = i
	}
	type ranked struct {
		tf   int64
		rank int
	}
	var rs []ranked
	for kw, ps := range out.Inverted {
		rs = rs[:0]
		for _, p := range ps {
			r, ok := rank[p.FragKey]
			if !ok {
				return fmt.Errorf("%w: keyword %q names fragment %q, which has no size", ErrCorruptPosting, kw, p.FragKey)
			}
			rs = append(rs, ranked{p.TF, r})
		}
		slices.SortFunc(rs, func(a, b ranked) int {
			if a.tf != b.tf {
				return cmp.Compare(b.tf, a.tf)
			}
			return a.rank - b.rank
		})
		for i, r := range rs {
			ps[i] = Posting{FragKey: keys[r.rank], TF: r.tf}
		}
	}
	return nil
}
