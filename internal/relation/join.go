package relation

import (
	"fmt"
)

// JoinKind selects inner or left-outer join semantics.
type JoinKind uint8

// Supported join kinds. Left-outer joins null-extend unmatched left rows,
// which is how db-pages keep restaurants that have no comments (paper
// Fig. 1/Fig. 5).
const (
	JoinInner JoinKind = iota + 1
	JoinLeftOuter
)

// String returns the SQL spelling of the join kind.
func (k JoinKind) String() string {
	switch k {
	case JoinInner:
		return "JOIN"
	case JoinLeftOuter:
		return "LEFT JOIN"
	default:
		return fmt.Sprintf("joinkind(%d)", uint8(k))
	}
}

// SharedColumns returns the column names present in both schemas, in the
// left schema's order. These are the natural-join columns: Dash's databases
// name foreign keys after the keys they reference (rid, uid, custkey, …),
// exactly as the paper's fooddb and TPC-H schemas do.
func SharedColumns(a, b *Schema) []string {
	var out []string
	for _, c := range a.Columns {
		if b.HasColumn(c.Name) {
			out = append(out, c.Name)
		}
	}
	return out
}

// Join performs a hash equi-join of left and right on the given columns,
// which must exist in both tables. If on is empty, the shared columns are
// used (natural join). The output schema is the left columns followed by the
// right columns minus the join columns; join columns appear once, with the
// left table's values.
//
// For JoinLeftOuter, left rows with no match are emitted once with the right
// side's non-join columns set to NULL.
func Join(left, right *Table, on []string, kind JoinKind) (*Table, error) {
	p, err := planJoin(left.Schema, right.Schema, on)
	if err != nil {
		return nil, err
	}

	// Build phase: hash the right side on its join key.
	build := make(map[string][]Row, len(right.Rows))
	var key []byte
	for _, r := range right.Rows {
		var ok bool
		if key, ok = appendJoinKey(key[:0], r, p.rightIdx); ok {
			build[string(key)] = append(build[string(key)], r)
		}
	}

	out := &Table{Schema: p.schema, Rows: make([]Row, 0, len(left.Rows))}
	for _, l := range left.Rows {
		var matches []Row
		var ok bool
		if key, ok = appendJoinKey(key[:0], l, p.leftIdx); ok {
			matches = build[string(key)]
		}
		for _, r := range matches {
			out.Rows = append(out.Rows, p.row(l, r))
		}
		if len(matches) == 0 && kind == JoinLeftOuter {
			out.Rows = append(out.Rows, p.row(l, nil))
		}
	}
	return out, nil
}

// joinPlan is the column bookkeeping one equi-join needs, shared by the
// hash join (Join) and the index probe (Database.ProbeJoin) so that both
// produce the same schema and the same row layout.
type joinPlan struct {
	schema    *Schema
	on        []string
	leftIdx   []int // join columns in the left schema, in on order
	rightIdx  []int // join columns in the right schema, in on order
	rightKeep []int // right columns that survive into the output
}

func planJoin(left, right *Schema, on []string) (*joinPlan, error) {
	if len(on) == 0 {
		on = SharedColumns(left, right)
		if len(on) == 0 {
			return nil, fmt.Errorf("%w: %s and %s", ErrNoJoinCols, left.Name, right.Name)
		}
	}
	p := &joinPlan{on: on, leftIdx: make([]int, len(on)), rightIdx: make([]int, len(on))}
	for i, name := range on {
		li, ri := left.ColumnIndex(name), right.ColumnIndex(name)
		if li < 0 {
			return nil, fmt.Errorf("%w: %s.%s", ErrNoColumn, left.Name, name)
		}
		if ri < 0 {
			return nil, fmt.Errorf("%w: %s.%s", ErrNoColumn, right.Name, name)
		}
		p.leftIdx[i] = li
		p.rightIdx[i] = ri
	}

	p.rightKeep = make([]int, 0, len(right.Columns))
	outCols := make([]Column, 0, len(left.Columns)+len(right.Columns))
	outCols = append(outCols, left.Columns...)
	for j, c := range right.Columns {
		isJoin := false
		for _, ri := range p.rightIdx {
			if ri == j {
				isJoin = true
				break
			}
		}
		if !isJoin {
			p.rightKeep = append(p.rightKeep, j)
			outCols = append(outCols, c)
		}
	}
	schema, err := NewSchema(left.Name+"⨝"+right.Name, outCols...)
	if err != nil {
		return nil, err
	}
	p.schema = schema
	return p, nil
}

// row concatenates a left row with a right row's surviving columns; a nil
// r null-extends (the left-outer case).
func (p *joinPlan) row(l, r Row) Row {
	row := make(Row, 0, len(p.schema.Columns))
	row = append(row, l...)
	for _, j := range p.rightKeep {
		if r == nil {
			row = append(row, Null())
		} else {
			row = append(row, r[j])
		}
	}
	return row
}

// appendJoinKey appends the Key encoding of r's columns idx to dst. ok is
// false if any of them is NULL: NULL never matches in an equi-join.
func appendJoinKey(dst []byte, r Row, idx []int) (key []byte, ok bool) {
	for _, j := range idx {
		if r[j].IsNull() {
			return dst, false
		}
		dst = AppendValue(dst, r[j])
	}
	return dst, true
}
