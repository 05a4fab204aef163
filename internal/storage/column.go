// Package storage implements the in-memory column store that HashStash
// executes over: typed columns, tables with sorted secondary indexes on
// selection attributes, the column-vector batches that flow through the
// push-based execution pipelines, and the morsels (row ranges) that
// partition a table into independent parallel scan units.
//
// None of these structures synchronize internally: tables and indexes
// are immutable while queries run, batches are owned by one worker at a
// time, and the execution layer coordinates everything else.
package storage

import (
	"fmt"
	"sort"

	"hashstash/internal/types"
)

// Column is a typed base-table column. Exactly one of the data slices is
// populated, selected by Kind (Ints also backs Date columns).
type Column struct {
	Name   string
	Kind   types.Kind
	Ints   []int64
	Floats []float64
	Strs   []string
}

// NewColumn returns an empty column of the given kind.
func NewColumn(name string, kind types.Kind) *Column {
	return &Column{Name: name, Kind: kind}
}

// Len reports the number of rows in the column.
func (c *Column) Len() int {
	switch c.Kind {
	case types.Int64, types.Date:
		return len(c.Ints)
	case types.Float64:
		return len(c.Floats)
	case types.String:
		return len(c.Strs)
	}
	return 0
}

// accepts reports whether a value of v's kind can be appended (dates
// also take plain integers).
func (c *Column) accepts(v types.Value) bool {
	return v.Kind == c.Kind || (c.Kind == types.Date && v.Kind == types.Int64)
}

// Append adds one value; its kind must match the column kind.
func (c *Column) Append(v types.Value) {
	if !c.accepts(v) {
		panic(fmt.Sprintf("storage: append %v value to %v column %q", v.Kind, c.Kind, c.Name))
	}
	switch c.Kind {
	case types.Int64, types.Date:
		c.Ints = append(c.Ints, v.I)
	case types.Float64:
		c.Floats = append(c.Floats, v.F)
	case types.String:
		c.Strs = append(c.Strs, v.S)
	}
}

// view returns a Vec aliasing the column's data slices; Column and Vec
// share the same layout, so the Vec bulk kernels serve both.
func (c *Column) view() Vec {
	return Vec{Kind: c.Kind, Ints: c.Ints, Floats: c.Floats, Strs: c.Strs}
}

// AppendVec bulk-appends every row of a batch vector of the same kind —
// the kind dispatch happens once per batch instead of once per row.
func (c *Column) AppendVec(v *Vec) {
	dst := c.view()
	dst.AppendRange(v, 0, v.Len())
	c.Ints, c.Floats, c.Strs = dst.Ints, dst.Floats, dst.Strs
}

// AppendColumn bulk-appends every row of another column of the same
// kind — the concatenation step when per-worker temp-table partials
// merge into one materialized table.
func (c *Column) AppendColumn(src *Column) {
	v := src.view()
	c.AppendVec(&v)
}

// Value returns the value at row i.
func (c *Column) Value(i int) types.Value {
	switch c.Kind {
	case types.Int64:
		return types.NewInt(c.Ints[i])
	case types.Date:
		return types.NewDate(c.Ints[i])
	case types.Float64:
		return types.NewFloat(c.Floats[i])
	case types.String:
		return types.NewString(c.Strs[i])
	}
	panic("storage: bad column kind")
}

// less orders two rows of the column; used by index construction.
func (c *Column) less(i, j int32) bool {
	switch c.Kind {
	case types.Int64, types.Date:
		return c.Ints[i] < c.Ints[j]
	case types.Float64:
		return c.Floats[i] < c.Floats[j]
	case types.String:
		return c.Strs[i] < c.Strs[j]
	}
	return false
}

// SortedPerm returns the row ids of the column ordered by value. The
// sort is stable, so rows with equal keys stay in row-id order — range
// lookups over the permutation return runs that scan the base table
// mostly forward.
func SortedPerm(col *Column) []int32 {
	perm := make([]int32, col.Len())
	for i := range perm {
		perm[i] = int32(i)
	}
	sort.SliceStable(perm, func(a, b int) bool { return col.less(perm[a], perm[b]) })
	return perm
}

// mergePerm extends perm — the SortedPerm of the column's first
// len(perm) rows — to every row of the column. The appended row ids are
// stable-sorted among themselves, and each is placed after the old ids
// whose keys are not greater than its own: old ids are smaller, so on
// ties they come first, which is SortedPerm's order. The result equals
// SortedPerm(col) at O(k log n) comparisons plus one copy of perm for k
// appended rows, instead of a full re-sort. It allocates a fresh slice
// and never writes perm.
func mergePerm(col *Column, perm []int32) []int32 {
	added := make([]int32, col.Len()-len(perm))
	for i := range added {
		added[i] = int32(len(perm) + i)
	}
	sort.SliceStable(added, func(a, b int) bool { return col.less(added[a], added[b]) })
	out := make([]int32, 0, col.Len())
	rest := perm
	for _, id := range added {
		i := sort.Search(len(rest), func(i int) bool { return col.less(id, rest[i]) })
		out = append(append(out, rest[:i]...), id)
		rest = rest[i:]
	}
	return append(out, rest...)
}

// Index is a sorted secondary index: Perm lists all row ids of the table
// ordered by the indexed column's value. Range lookups binary-search the
// permutation and return a contiguous run of row ids.
type Index struct {
	Col  *Column
	Perm []int32
}

// BuildIndex sorts the table's rows by the column value.
func BuildIndex(col *Column) *Index {
	return &Index{Col: col, Perm: SortedPerm(col)}
}

// Range returns the slice of the permutation whose column values v
// satisfy lo <= v <= hi under the given inclusivity flags. Unbounded ends
// are expressed by hasLo/hasHi=false. The returned slice aliases the
// index; callers must not modify it.
func (ix *Index) Range(lo, hi types.Value, hasLo, hasHi, loIncl, hiIncl bool) []int32 {
	n := len(ix.Perm)
	start := 0
	if hasLo {
		start = sort.Search(n, func(i int) bool {
			cmp := ix.Col.Value(int(ix.Perm[i])).Compare(lo)
			if loIncl {
				return cmp >= 0
			}
			return cmp > 0
		})
	}
	end := n
	if hasHi {
		end = sort.Search(n, func(i int) bool {
			cmp := ix.Col.Value(int(ix.Perm[i])).Compare(hi)
			if hiIncl {
				return cmp > 0
			}
			return cmp >= 0
		})
	}
	if start > end {
		return nil
	}
	return ix.Perm[start:end]
}
