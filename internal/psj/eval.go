package psj

import (
	"fmt"

	"repro/internal/relation"
)

// JoinAll evaluates the query's join tree over db without applying any
// selection or projection. This is the reference evaluator behind the
// crawling query (paper §V-A):
//
//	π a1,…,al,c1,…,cm (R1 ⨝ R2 ⨝ … ⨝ Rn)
//
// The caller projects as needed. The MapReduce crawlers compute the same
// result via shuffle joins; tests assert both paths agree.
func (b *Bound) JoinAll(db *relation.Database) (*relation.Table, error) {
	return b.evalJoin(b.Query.From, db, nil)
}

// Execute evaluates the full parameterized query for concrete parameter
// values, pushing selections down to the owning leaf relations before
// joining. This is how a web application generates one db-page's content,
// and how a recrawl re-derives one fragment.
//
// Its cost follows the rows selected, not the table sizes: a leaf with an
// equality condition is looked up through the database's hash index, and
// a join against a base relation probes that relation's index on the join
// columns with the rows already selected (relation.Database.ProbeJoin).
// The answer — rows and their order — is the same as filtering every leaf
// by a scan and hash-joining the results.
func (b *Bound) Execute(db *relation.Database, params map[string]relation.Value) (*relation.Table, error) {
	for _, p := range b.Query.Params() {
		if _, ok := params[p]; !ok {
			return nil, fmt.Errorf("%w: $%s", ErrNoParam, p)
		}
	}
	x := &pushdown{db: db, params: params, conds: make(map[string][]BoundCond, len(b.Conds))}
	for _, c := range b.Conds {
		x.conds[c.Relation] = append(x.conds[c.Relation], c)
	}
	joined, err := b.evalJoin(b.Query.From, db, x)
	if err != nil {
		return nil, err
	}
	return joined.Project(b.Projections)
}

// evalJoin walks the join tree. With x nil (JoinAll) every leaf is its whole
// table and every join a hash join; otherwise x filters the leaves, and a
// join whose right side is a base relation probes it instead of hashing it.
func (b *Bound) evalJoin(node *JoinExpr, db *relation.Database, x *pushdown) (*relation.Table, error) {
	if node.IsLeaf() {
		if x == nil {
			return db.Table(node.Relation)
		}
		return x.leaf(node.Relation)
	}
	left, err := b.evalJoin(node.Left, db, x)
	if err != nil {
		return nil, err
	}
	if x != nil && node.Right.IsLeaf() {
		keep, err := x.filter(node.Right.Relation)
		if err != nil {
			return nil, err
		}
		return db.ProbeJoin(left, node.Right.Relation, b.nodeOn[node], node.Kind, keep)
	}
	right, err := b.evalJoin(node.Right, db, x)
	if err != nil {
		return nil, err
	}
	return relation.Join(left, right, b.nodeOn[node], node.Kind)
}

// pushdown is one Execute call's view of the leaves: the conditions each
// owns and the parameter values they compare against.
type pushdown struct {
	db     *relation.Database
	params map[string]relation.Value
	conds  map[string][]BoundCond // owning relation -> its conditions
}

// leaf returns the rows of the leaf relation its conditions select, in
// table order: looked up through the index on the first of its equality
// conditions the index can answer, else scanned. An equality is an =
// condition, or a >= and a <= condition on one column pinned to the same
// value (a recrawl's point range).
func (x *pushdown) leaf(leaf string) (*relation.Table, error) {
	keep, err := x.filter(leaf)
	if err != nil {
		return nil, err
	}
	conds := x.conds[leaf]
	for _, c := range conds {
		v := x.params[c.Param]
		if c.Op == OpEQ || c.Op == OpGE && pinnedAbove(conds, c.Attr.Col, v, x.params) {
			t, ok, err := x.db.SelectEqual(leaf, c.Attr.Col, v, keep)
			if err != nil || ok {
				return t, err
			}
		}
	}
	t, err := x.db.Table(leaf)
	if err != nil || keep == nil {
		return t, err
	}
	return t.Select(keep), nil
}

// pinnedAbove reports whether a <= condition bounds col by the value v.
func pinnedAbove(conds []BoundCond, col string, v relation.Value, params map[string]relation.Value) bool {
	for _, c := range conds {
		if c.Op == OpLE && c.Attr.Col == col && params[c.Param] == v {
			return true
		}
	}
	return false
}

// filter returns the conjunction of the leaf's conditions as a row
// predicate, or nil when the leaf has none. A NULL never satisfies one.
func (x *pushdown) filter(leaf string) (func(relation.Row) bool, error) {
	conds := x.conds[leaf]
	if len(conds) == 0 {
		return nil, nil
	}
	t, err := x.db.Table(leaf)
	if err != nil {
		return nil, err
	}
	idx := make([]int, len(conds))
	for i, c := range conds {
		idx[i] = t.Schema.ColumnIndex(c.Attr.Col)
	}
	params := x.params
	return func(row relation.Row) bool {
		for i, c := range conds {
			v := row[idx[i]]
			if v.IsNull() {
				return false
			}
			cmp := v.Compare(params[c.Param])
			switch c.Op {
			case OpEQ:
				if cmp != 0 {
					return false
				}
			case OpGE:
				if cmp < 0 {
					return false
				}
			case OpLE:
				if cmp > 0 {
					return false
				}
			}
		}
		return true
	}, nil
}

// CrawlProjection returns the column list of the crawling query: the
// projection attributes followed by any selection attributes not already
// projected (paper §V-A).
func (b *Bound) CrawlProjection() []string {
	out := make([]string, 0, len(b.Projections)+len(b.SelAttrs))
	out = append(out, b.Projections...)
	seen := make(map[string]bool, len(out))
	for _, c := range out {
		seen[c] = true
	}
	for _, c := range b.SelAttrs {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}
