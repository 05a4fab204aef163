package storage

import (
	"fmt"

	"hashstash/internal/types"
)

// Table is an in-memory columnar table. Secondary indexes are built
// explicitly on selection attributes (the paper's setup indexes every
// attribute its workloads filter on).
type Table struct {
	Name    string
	Cols    []*Column
	byName  map[string]int
	indexes map[string]*Index
}

// NewTable creates an empty table with the given columns.
func NewTable(name string, cols ...*Column) *Table {
	t := &Table{Name: name, byName: make(map[string]int), indexes: make(map[string]*Index)}
	for _, c := range cols {
		t.AddColumn(c)
	}
	return t
}

// AddColumn appends a column definition. All columns must stay the same
// length; Table.Check verifies this.
func (t *Table) AddColumn(c *Column) {
	if _, dup := t.byName[c.Name]; dup {
		panic(fmt.Sprintf("storage: duplicate column %q in table %q", c.Name, t.Name))
	}
	t.byName[c.Name] = len(t.Cols)
	t.Cols = append(t.Cols, c)
}

// Column returns the named column or nil.
func (t *Table) Column(name string) *Column {
	if i, ok := t.byName[name]; ok {
		return t.Cols[i]
	}
	return nil
}

// ColumnIndex returns the position of the named column, or -1.
func (t *Table) ColumnIndex(name string) int {
	if i, ok := t.byName[name]; ok {
		return i
	}
	return -1
}

// NumRows reports the row count (0 for a table with no columns).
func (t *Table) NumRows() int {
	if len(t.Cols) == 0 {
		return 0
	}
	return t.Cols[0].Len()
}

// AppendRow adds one row; values must match the column kinds in order.
func (t *Table) AppendRow(vals ...types.Value) {
	if len(vals) != len(t.Cols) {
		panic(fmt.Sprintf("storage: AppendRow got %d values for %d columns", len(vals), len(t.Cols)))
	}
	for i, v := range vals {
		t.Cols[i].Append(v)
	}
}

// CheckRows validates a batch of rows (values in column order) against
// the table's schema: every row must have one value per column, of the
// column's kind.
func (t *Table) CheckRows(rows [][]types.Value) error {
	for r, row := range rows {
		if len(row) != len(t.Cols) {
			return fmt.Errorf("storage: table %q row %d has %d values for %d columns", t.Name, r, len(row), len(t.Cols))
		}
		for i, v := range row {
			if !t.Cols[i].accepts(v) {
				return fmt.Errorf("storage: table %q row %d: %v value for %v column %q", t.Name, r, v.Kind, t.Cols[i].Kind, t.Cols[i].Name)
			}
		}
	}
	return nil
}

// AppendRows appends a batch of rows (values in column order) and keeps
// every secondary index in step: each index gets a fresh permutation
// with the new row ids merged in (see mergePerm), so readers holding
// the previous Index are unaffected. A row that fails CheckRows rejects
// the whole batch before anything is appended.
func (t *Table) AppendRows(rows [][]types.Value) error {
	if err := t.CheckRows(rows); err != nil || len(rows) == 0 {
		return err
	}
	for _, row := range rows {
		t.AppendRow(row...)
	}
	for name, ix := range t.indexes {
		t.indexes[name] = &Index{Col: ix.Col, Perm: mergePerm(ix.Col, ix.Perm)}
	}
	return nil
}

// Check validates that all columns have equal length.
func (t *Table) Check() error {
	n := t.NumRows()
	for _, c := range t.Cols {
		if c.Len() != n {
			return fmt.Errorf("storage: table %q column %q has %d rows, want %d", t.Name, c.Name, c.Len(), n)
		}
	}
	return nil
}

// BuildIndexOn constructs (or rebuilds) a sorted secondary index on the
// named column.
func (t *Table) BuildIndexOn(col string) error {
	c := t.Column(col)
	if c == nil {
		return fmt.Errorf("storage: table %q has no column %q", t.Name, col)
	}
	t.indexes[col] = BuildIndex(c)
	return nil
}

// IndexOn returns the secondary index on the named column, or nil.
func (t *Table) IndexOn(col string) *Index { return t.indexes[col] }

// ByteSize estimates the memory footprint of the table's data arrays.
func (t *Table) ByteSize() int64 {
	var total int64
	for _, c := range t.Cols {
		switch c.Kind {
		case types.Int64, types.Date:
			total += int64(len(c.Ints)) * 8
		case types.Float64:
			total += int64(len(c.Floats)) * 8
		case types.String:
			for _, s := range c.Strs {
				total += int64(len(s)) + 16
			}
		}
	}
	for _, ix := range t.indexes {
		total += int64(len(ix.Perm)) * 4
	}
	return total
}
