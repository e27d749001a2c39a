package relation

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// ErrNoTable is returned when a database lookup misses.
var ErrNoTable = errors.New("relation: no such table")

// ForeignKey records that FromTable.Column references ToTable.Column. Dash's
// relational keyword-search baseline walks these edges to join matched
// records "as long as they are linked through referential constraints"
// (paper §II).
type ForeignKey struct {
	FromTable string
	FromCol   string
	ToTable   string
	ToCol     string
}

// Database is a named collection of tables plus referential metadata.
//
// It also keeps the hash indexes SelectEqual and ProbeJoin look rows up
// through, one per (table, column set), built on first use and kept current
// with the tables; concurrent readers may share them. Registering a table or
// appending rows must not run concurrently with readers, as for any Table.
// The indexes rely on Table's rule that appended rows never change: update
// or delete rows by assigning a new Rows slice or registering a new table.
type Database struct {
	Name   string
	tables map[string]*Table
	order  []string // insertion order, for deterministic iteration
	fks    []ForeignKey

	mu      sync.Mutex // guards indexes
	indexes map[indexKey]*hashIndex
}

// NewDatabase creates an empty database.
func NewDatabase(name string) *Database {
	return &Database{Name: name, tables: make(map[string]*Table)}
}

// AddTable registers a table under its schema name. Re-adding a name
// replaces the table (used by update examples) but keeps its position.
func (d *Database) AddTable(t *Table) {
	name := t.Schema.Name
	if _, ok := d.tables[name]; !ok {
		d.order = append(d.order, name)
	}
	d.tables[name] = t
}

// Table returns the named table.
func (d *Database) Table(name string) (*Table, error) {
	t, ok := d.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoTable, name)
	}
	return t, nil
}

// TableNames returns all table names in insertion order.
func (d *Database) TableNames() []string {
	out := make([]string, len(d.order))
	copy(out, d.order)
	return out
}

// AddForeignKey registers a referential constraint.
func (d *Database) AddForeignKey(fk ForeignKey) { d.fks = append(d.fks, fk) }

// ForeignKeys returns a copy of the registered constraints.
func (d *Database) ForeignKeys() []ForeignKey {
	out := make([]ForeignKey, len(d.fks))
	copy(out, d.fks)
	return out
}

// TotalRows returns the sum of row counts over all tables.
func (d *Database) TotalRows() int {
	n := 0
	for _, t := range d.tables {
		n += len(t.Rows)
	}
	return n
}

// Stats summarises per-table row counts, sorted by table name. Used by the
// benchmark harness to print Table II analogues.
func (d *Database) Stats() []TableStat {
	out := make([]TableStat, 0, len(d.tables))
	for name, t := range d.tables {
		bytes := 0
		for _, r := range t.Rows {
			bytes += len(EncodeRow(r))
		}
		out = append(out, TableStat{Name: name, Rows: len(t.Rows), Bytes: bytes})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// TableStat reports the size of one table.
type TableStat struct {
	Name  string
	Rows  int
	Bytes int
}
