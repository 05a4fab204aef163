// Package catalog maintains the schema registry and the table/column
// statistics that drive both classic cost estimation (cardinalities,
// selectivities) and the reuse-aware parts of the HashStash cost model
// (contribution and overhead ratios of candidate hash tables).
package catalog

import (
	"fmt"
	"sort"
	"sync"

	"hashstash/hashstasherr"
	"hashstash/internal/expr"
	"hashstash/internal/storage"
	"hashstash/internal/types"
)

// ColumnStats summarizes one column for the optimizer.
type ColumnStats struct {
	Kind types.Kind
	Min  types.Value
	Max  types.Value
	NDV  int64 // number of distinct values
}

// TableStats summarizes one table.
type TableStats struct {
	Rows int64
	Cols map[string]*ColumnStats
}

// Catalog is the schema registry: base tables plus their statistics
// and, in a sharded engine, the partition-key declaration per table.
// Methods are safe for concurrent use: steady-state schema never
// changes while queries run, but the sharded exchange operator
// registers (and later unregisters) query-lifetime temporary tables
// concurrently with planning, so the registry takes a read-write lock.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*storage.Table
	stats  map[string]*TableStats
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{
		tables: make(map[string]*storage.Table),
		stats:  make(map[string]*TableStats),
	}
}

// Register adds a table and computes its statistics. Re-registering a
// table recomputes statistics (e.g. after loading data).
func (c *Catalog) Register(t *storage.Table) {
	stats := ComputeStats(t)
	c.mu.Lock()
	c.tables[t.Name] = t
	c.stats[t.Name] = stats
	c.mu.Unlock()
}

// Unregister removes a table (the teardown of exchange temporaries).
func (c *Catalog) Unregister(name string) {
	c.mu.Lock()
	delete(c.tables, name)
	delete(c.stats, name)
	c.mu.Unlock()
}

// Table returns the named base table, or nil.
func (c *Catalog) Table(name string) *storage.Table {
	c.mu.RLock()
	t := c.tables[name]
	c.mu.RUnlock()
	return t
}

// Stats returns statistics for the named table, or nil.
func (c *Catalog) Stats(name string) *TableStats {
	c.mu.RLock()
	s := c.stats[name]
	c.mu.RUnlock()
	return s
}

// TableNames lists registered tables in sorted order.
func (c *Catalog) TableNames() []string {
	c.mu.RLock()
	names := make([]string, 0, len(c.tables))
	for n := range c.tables {
		names = append(names, n)
	}
	c.mu.RUnlock()
	sort.Strings(names)
	return names
}

// Resolve finds the kind of a column in the named table.
func (c *Catalog) Resolve(table, column string) (types.Kind, error) {
	t := c.Table(table)
	if t == nil {
		return 0, fmt.Errorf("catalog: %w %q", hashstasherr.ErrUnknownTable, table)
	}
	col := t.Column(column)
	if col == nil {
		return 0, fmt.Errorf("catalog: %w %q in table %q", hashstasherr.ErrUnknownColumn, column, table)
	}
	return col.Kind, nil
}

// ComputeStats scans a table once and derives per-column statistics.
// NDV is exact (hash-set based); for the table sizes HashStash targets
// this one-time cost is negligible next to index construction.
func ComputeStats(t *storage.Table) *TableStats {
	ts := &TableStats{Rows: int64(t.NumRows()), Cols: make(map[string]*ColumnStats, len(t.Cols))}
	for _, col := range t.Cols {
		cs := &ColumnStats{Kind: col.Kind}
		n := col.Len()
		if n > 0 {
			switch col.Kind {
			case types.Int64, types.Date:
				distinct := make(map[int64]struct{}, 1024)
				minV, maxV := col.Ints[0], col.Ints[0]
				for _, v := range col.Ints {
					if v < minV {
						minV = v
					}
					if v > maxV {
						maxV = v
					}
					distinct[v] = struct{}{}
				}
				cs.Min = types.FromBits(col.Kind, uint64(minV))
				cs.Max = types.FromBits(col.Kind, uint64(maxV))
				cs.NDV = int64(len(distinct))
			case types.Float64:
				distinct := make(map[float64]struct{}, 1024)
				minV, maxV := col.Floats[0], col.Floats[0]
				for _, v := range col.Floats {
					if v < minV {
						minV = v
					}
					if v > maxV {
						maxV = v
					}
					distinct[v] = struct{}{}
				}
				cs.Min = types.NewFloat(minV)
				cs.Max = types.NewFloat(maxV)
				cs.NDV = int64(len(distinct))
			case types.String:
				distinct := make(map[string]struct{}, 1024)
				minV, maxV := col.Strs[0], col.Strs[0]
				for _, v := range col.Strs {
					if v < minV {
						minV = v
					}
					if v > maxV {
						maxV = v
					}
					distinct[v] = struct{}{}
				}
				cs.Min = types.NewString(minV)
				cs.Max = types.NewString(maxV)
				cs.NDV = int64(len(distinct))
			}
		}
		ts.Cols[col.Name] = cs
	}
	return ts
}

// Selectivity estimates the fraction of the table's rows satisfying the
// box, assuming independent columns and uniform value distributions (the
// classic System-R model). Predicates on columns the table lacks are
// ignored (they belong to other relations of the enumerated sub-plan).
func (ts *TableStats) Selectivity(box expr.Box) float64 {
	sel := 1.0
	for _, p := range box {
		cs, ok := ts.Cols[p.Col.Column]
		if !ok {
			continue
		}
		sel *= constraintSelectivity(cs, p.Con)
	}
	if sel < 0 {
		sel = 0
	}
	if sel > 1 {
		sel = 1
	}
	return sel
}

func constraintSelectivity(cs *ColumnStats, con expr.Constraint) float64 {
	if con.Empty() {
		return 0
	}
	if cs.NDV == 0 {
		return 1 // empty table; anything times zero rows is zero
	}
	if con.Kind == types.String {
		s := float64(len(con.Set)) / float64(cs.NDV)
		if s > 1 {
			s = 1
		}
		return s
	}
	lo, hi := cs.Min.AsFloat(), cs.Max.AsFloat()
	width := hi - lo
	if width <= 0 {
		// Single-valued column: constraint either admits it or not.
		if con.Iv.Contains(cs.Min) {
			return 1
		}
		return 0
	}
	cLo, cHi := lo, hi
	if con.Iv.HasLo {
		if v := con.Iv.Lo.AsFloat(); v > cLo {
			cLo = v
		}
	}
	if con.Iv.HasHi {
		if v := con.Iv.Hi.AsFloat(); v < cHi {
			cHi = v
		}
	}
	if cHi < cLo {
		return 0
	}
	if cHi == cLo {
		// Point constraint on a range: one value out of NDV.
		return 1 / float64(cs.NDV)
	}
	return (cHi - cLo) / width
}

// EstimateRows estimates the number of rows of table satisfying box.
func (ts *TableStats) EstimateRows(box expr.Box) float64 {
	return float64(ts.Rows) * ts.Selectivity(box)
}

// DistinctAfterFilter estimates the number of distinct values of column
// col among rows satisfying box, with the standard capped-linear
// heuristic: distinct values cannot exceed either the column NDV or the
// filtered row count.
func (ts *TableStats) DistinctAfterFilter(col string, box expr.Box) float64 {
	cs, ok := ts.Cols[col]
	if !ok {
		return 1
	}
	rows := ts.EstimateRows(box)
	ndv := float64(cs.NDV)
	// If the filter constrains col itself, scale its NDV by the
	// constraint's own selectivity (uniformity assumption).
	for _, p := range box {
		if p.Col.Column == col {
			ndv *= constraintSelectivity(cs, p.Con)
		}
	}
	if ndv > rows {
		ndv = rows
	}
	if ndv < 1 {
		ndv = 1
	}
	return ndv
}
