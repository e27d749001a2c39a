package relation

import (
	"fmt"
	"strings"
	"sync"
)

// kindMixed marks an indexed column holding non-NULL values of more than
// one kind.
const kindMixed Kind = 255

// hashIndex maps the Key encoding of one table's values in a column set to
// the ascending positions of the rows holding them. Rows with a NULL in an
// indexed column are left out: NULL matches nothing, in an equi-join or an
// equality.
//
// The index describes a prefix of the table's row slice and is brought up
// to date on every use (acquire): extended over the rows Table.Append added
// in place, rebuilt when the slice or the table was replaced, or when the
// row at the prefix's last position is no longer the one indexed there (a
// delete or insert in place followed by appends). It relies on rows being
// immutable once appended (see Table): a row edited, or replaced in place
// anywhere but the last indexed position, goes unnoticed.
type hashIndex struct {
	mu    sync.RWMutex
	cols  []int
	table *Table
	rows  []Row              // the prefix of table.Rows indexed so far
	last  *Value             // first value of the prefix's last row when indexed
	pos   map[string][]int32 // Key of the column values -> row positions
	kinds []Kind             // per column: its one non-NULL kind, KindNull if none, kindMixed if several
}

// current reports whether ix describes t's rows exactly.
func (ix *hashIndex) current(t *Table) bool {
	return ix.table == t && len(t.Rows) == len(ix.rows) && ix.prefixOf(t.Rows)
}

// prefixOf reports whether the indexed prefix is still the start of rows:
// the same array, and the same row at its last position.
func (ix *hashIndex) prefixOf(rows []Row) bool {
	n := len(ix.rows)
	return n == 0 || len(rows) >= n && &rows[0] == &ix.rows[0] && firstValue(rows[n-1]) == ix.last
}

// firstValue identifies a row by the address of its first value.
func firstValue(r Row) *Value {
	if len(r) == 0 {
		return nil
	}
	return &r[0]
}

// acquire read-locks ix once it is current for t. The caller RUnlocks.
func (ix *hashIndex) acquire(t *Table) {
	for {
		ix.mu.RLock()
		if ix.current(t) {
			return
		}
		ix.mu.RUnlock()
		ix.mu.Lock()
		if !ix.current(t) {
			ix.refresh(t)
		}
		ix.mu.Unlock()
	}
}

// refresh indexes the rows t gained since ix was last current, or all of
// them when t's row slice no longer starts with the indexed prefix.
func (ix *hashIndex) refresh(t *Table) {
	rows := t.Rows
	if ix.table != t || !ix.prefixOf(rows) {
		ix.table, ix.rows = t, nil
		ix.pos = make(map[string][]int32)
		for i := range ix.kinds {
			ix.kinds[i] = KindNull
		}
	}
	var key []byte
	for p := len(ix.rows); p < len(rows); p++ {
		r := rows[p]
		for i, j := range ix.cols {
			switch k := r[j].kind; {
			case k == KindNull || k == ix.kinds[i]:
			case ix.kinds[i] == KindNull:
				ix.kinds[i] = k
			default:
				ix.kinds[i] = kindMixed
			}
		}
		var ok bool
		if key, ok = appendJoinKey(key[:0], r, ix.cols); ok {
			ix.pos[string(key)] = append(ix.pos[string(key)], int32(p))
		}
	}
	ix.rows = rows
	if len(rows) > 0 {
		ix.last = firstValue(rows[len(rows)-1])
	}
}

// indexKey names one index: a table and its column set, NUL-joined.
type indexKey struct{ table, cols string }

// index returns the database's hash index on columns cols of t, the table
// registered as name, creating the index on first use.
func (d *Database) index(name string, t *Table, cols []string) (*hashIndex, error) {
	key := indexKey{name, strings.Join(cols, "\x00")}
	d.mu.Lock()
	defer d.mu.Unlock()
	if ix := d.indexes[key]; ix != nil {
		return ix, nil
	}
	ix := &hashIndex{cols: make([]int, len(cols)), kinds: make([]Kind, len(cols))}
	for i, c := range cols {
		if ix.cols[i] = t.Schema.ColumnIndex(c); ix.cols[i] < 0 {
			return nil, fmt.Errorf("%w: %s.%s", ErrNoColumn, name, c)
		}
	}
	if d.indexes == nil {
		d.indexes = make(map[indexKey]*hashIndex)
	}
	d.indexes[key] = ix
	return ix, nil
}

// SelectEqual returns the rows of the named table whose column col compares
// equal to v under Value.Compare and that keep accepts (nil keeps all), in
// table order: Select's answer, looked up through a hash index on col
// instead of scanning the table. ok is false, with no table, when the index
// cannot answer exactly and the caller must scan: the index matches Key
// encodings, which agree with Compare only for an int or string v against a
// column holding nothing but v's kind and NULLs.
func (d *Database) SelectEqual(name, col string, v Value, keep func(Row) bool) (*Table, bool, error) {
	if v.kind != KindInt && v.kind != KindString {
		return nil, false, nil
	}
	t, err := d.Table(name)
	if err != nil {
		return nil, false, err
	}
	ix, err := d.index(name, t, []string{col})
	if err != nil {
		return nil, false, err
	}
	ix.acquire(t)
	defer ix.mu.RUnlock()
	if ix.kinds[0] != v.kind {
		return nil, false, nil
	}
	var buf [32]byte
	pos := ix.pos[string(AppendValue(buf[:0], v))]
	out := make([]Row, 0, len(pos))
	for _, p := range pos {
		if r := ix.rows[p]; keep == nil || keep(r) {
			out = append(out, r)
		}
	}
	return &Table{Schema: t.Schema, Rows: out}, true, nil
}

// ProbeJoin returns Join(left, right.Select(keep), on, kind) for the named
// base table right — the same rows, in the same order, with the same schema
// — computed by probing right's hash index on the join columns with each
// left row instead of hashing right: O(left rows + matches) rather than
// O(right rows). Probing in left-row order and taking each row's matches in
// right-row order is exactly the hash join's output order.
func (d *Database) ProbeJoin(left *Table, right string, on []string, kind JoinKind, keep func(Row) bool) (*Table, error) {
	rt, err := d.Table(right)
	if err != nil {
		return nil, err
	}
	p, err := planJoin(left.Schema, rt.Schema, on)
	if err != nil {
		return nil, err
	}
	ix, err := d.index(right, rt, p.on)
	if err != nil {
		return nil, err
	}
	ix.acquire(rt)
	defer ix.mu.RUnlock()

	out := &Table{Schema: p.schema, Rows: make([]Row, 0, len(left.Rows))}
	var key []byte
	for _, l := range left.Rows {
		matched := false
		var ok bool
		if key, ok = appendJoinKey(key[:0], l, p.leftIdx); ok {
			for _, pos := range ix.pos[string(key)] {
				if r := ix.rows[pos]; keep == nil || keep(r) {
					out.Rows = append(out.Rows, p.row(l, r))
					matched = true
				}
			}
		}
		if !matched && kind == JoinLeftOuter {
			out.Rows = append(out.Rows, p.row(l, nil))
		}
	}
	return out, nil
}
