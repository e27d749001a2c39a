package relation

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Common errors returned by schema and table operations.
var (
	ErrNoColumn   = errors.New("relation: no such column")
	ErrDupColumn  = errors.New("relation: duplicate column")
	ErrArity      = errors.New("relation: row arity does not match schema")
	ErrNoJoinCols = errors.New("relation: tables share no join columns")
)

// Column describes one attribute of a relation.
type Column struct {
	Name string
	Kind Kind
}

// Schema is an ordered list of columns with a relation name.
type Schema struct {
	Name    string
	Columns []Column
}

// NewSchema builds a schema, rejecting duplicate column names.
func NewSchema(name string, cols ...Column) (*Schema, error) {
	seen := make(map[string]bool, len(cols))
	for _, c := range cols {
		if seen[c.Name] {
			return nil, fmt.Errorf("%w: %s.%s", ErrDupColumn, name, c.Name)
		}
		seen[c.Name] = true
	}
	return &Schema{Name: name, Columns: cols}, nil
}

// MustSchema is NewSchema for statically known schemas; it panics on error
// and is intended for package-level test fixtures and generators.
func MustSchema(name string, cols ...Column) *Schema {
	s, err := NewSchema(name, cols...)
	if err != nil {
		panic(err)
	}
	return s
}

// ColumnIndex returns the position of the named column, or -1.
func (s *Schema) ColumnIndex(name string) int {
	for i, c := range s.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// HasColumn reports whether the schema contains the named column.
func (s *Schema) HasColumn(name string) bool { return s.ColumnIndex(name) >= 0 }

// ColumnNames returns the column names in schema order.
func (s *Schema) ColumnNames() []string {
	out := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		out[i] = c.Name
	}
	return out
}

// ColumnKind returns the kind of the named column.
func (s *Schema) ColumnKind(name string) (Kind, error) {
	i := s.ColumnIndex(name)
	if i < 0 {
		return KindNull, fmt.Errorf("%w: %s.%s", ErrNoColumn, s.Name, name)
	}
	return s.Columns[i].Kind, nil
}

// Table is a schema plus rows. The zero Table is unusable; construct with
// NewTable.
//
// Rows are immutable once appended: neither a row's values nor its position
// in Rows change afterwards. Select and Join share row storage with their
// inputs, and a Database's indexes remember row positions, on that promise.
// To change a table, append to it, or replace Rows (or the whole table) with
// a new slice: to update or delete a row, build the new slice and assign
// it. An index notices an append and a replaced slice, and a delete or
// insert in place that moves the last row, but not a value edited in place
// (t.Rows[i][j] = v) or a row swapped at another position; after one of
// those its answers are stale.
type Table struct {
	Schema *Schema
	Rows   []Row
}

// NewTable creates an empty table with the given schema.
func NewTable(s *Schema) *Table { return &Table{Schema: s} }

// Append adds rows, validating arity against the schema.
func (t *Table) Append(rows ...Row) error {
	for _, r := range rows {
		if len(r) != len(t.Schema.Columns) {
			return fmt.Errorf("%w: table %s has %d columns, row has %d",
				ErrArity, t.Schema.Name, len(t.Schema.Columns), len(r))
		}
		t.Rows = append(t.Rows, r)
	}
	return nil
}

// Len returns the number of rows.
func (t *Table) Len() int { return len(t.Rows) }

// Select returns a new table holding the rows for which pred is true. The
// returned table shares row storage with the receiver.
func (t *Table) Select(pred func(Row) bool) *Table {
	out := &Table{Schema: t.Schema, Rows: make([]Row, 0, len(t.Rows)/4)}
	for _, r := range t.Rows {
		if pred(r) {
			out.Rows = append(out.Rows, r)
		}
	}
	return out
}

// Project returns a new table containing only the named columns, in the
// given order.
func (t *Table) Project(cols []string) (*Table, error) {
	idx := make([]int, len(cols))
	outCols := make([]Column, len(cols))
	for i, name := range cols {
		j := t.Schema.ColumnIndex(name)
		if j < 0 {
			return nil, fmt.Errorf("%w: %s.%s", ErrNoColumn, t.Schema.Name, name)
		}
		idx[i] = j
		outCols[i] = t.Schema.Columns[j]
	}
	schema, err := NewSchema(t.Schema.Name, outCols...)
	if err != nil {
		return nil, err
	}
	out := &Table{Schema: schema, Rows: make([]Row, 0, len(t.Rows))}
	for _, r := range t.Rows {
		nr := make(Row, len(idx))
		for i, j := range idx {
			nr[i] = r[j]
		}
		out.Rows = append(out.Rows, nr)
	}
	return out, nil
}

// SortBy sorts rows by the named columns ascending. It sorts a copy and
// replaces Rows with it, so rows keep their positions in any slice shared
// before the call.
func (t *Table) SortBy(cols ...string) error {
	idx := make([]int, len(cols))
	for i, name := range cols {
		j := t.Schema.ColumnIndex(name)
		if j < 0 {
			return fmt.Errorf("%w: %s.%s", ErrNoColumn, t.Schema.Name, name)
		}
		idx[i] = j
	}
	rows := slices.Clone(t.Rows)
	sort.SliceStable(rows, func(a, b int) bool {
		ra, rb := rows[a], rows[b]
		for _, j := range idx {
			if c := ra[j].Compare(rb[j]); c != 0 {
				return c < 0
			}
		}
		return false
	})
	t.Rows = rows
	return nil
}

// GroupCount groups rows by the named columns and returns a table with those
// columns plus a trailing integer "count" column. It implements the
// integrated crawl algorithm's aggregate query
//
//	c_i, j_i  G count(*) as θ_i  (R_i)
func (t *Table) GroupCount(cols []string, countName string) (*Table, error) {
	idx := make([]int, len(cols))
	outCols := make([]Column, 0, len(cols)+1)
	for i, name := range cols {
		j := t.Schema.ColumnIndex(name)
		if j < 0 {
			return nil, fmt.Errorf("%w: %s.%s", ErrNoColumn, t.Schema.Name, name)
		}
		idx[i] = j
		outCols = append(outCols, t.Schema.Columns[j])
	}
	outCols = append(outCols, Column{Name: countName, Kind: KindInt})
	schema, err := NewSchema(t.Schema.Name, outCols...)
	if err != nil {
		return nil, err
	}

	type group struct {
		key   Row
		count int64
	}
	groups := make(map[string]*group, len(t.Rows)/2)
	order := make([]string, 0, len(t.Rows)/2)
	keyVals := make([]Value, len(idx))
	for _, r := range t.Rows {
		for i, j := range idx {
			keyVals[i] = r[j]
		}
		k := Key(keyVals)
		g, ok := groups[k]
		if !ok {
			g = &group{key: CloneRow(keyVals)}
			groups[k] = g
			order = append(order, k)
		}
		g.count++
	}
	out := &Table{Schema: schema, Rows: make([]Row, 0, len(groups))}
	for _, k := range order {
		g := groups[k]
		row := make(Row, 0, len(g.key)+1)
		row = append(row, g.key...)
		row = append(row, Int(g.count))
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// DistinctValues returns the sorted distinct values of the named column.
func (t *Table) DistinctValues(col string) ([]Value, error) {
	j := t.Schema.ColumnIndex(col)
	if j < 0 {
		return nil, fmt.Errorf("%w: %s.%s", ErrNoColumn, t.Schema.Name, col)
	}
	seen := make(map[string]Value, len(t.Rows)/4)
	for _, r := range t.Rows {
		seen[Key([]Value{r[j]})] = r[j]
	}
	out := make([]Value, 0, len(seen))
	for _, v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Compare(out[b]) < 0 })
	return out, nil
}

// Clone deep-copies the table (rows are re-sliced; values are immutable).
func (t *Table) Clone() *Table {
	out := &Table{Schema: t.Schema, Rows: make([]Row, len(t.Rows))}
	for i, r := range t.Rows {
		out.Rows[i] = CloneRow(r)
	}
	return out
}

// String renders a compact debug representation (name, columns, row count).
func (t *Table) String() string {
	return fmt.Sprintf("%s(%s)[%d rows]", t.Schema.Name,
		strings.Join(t.Schema.ColumnNames(), ","), len(t.Rows))
}
