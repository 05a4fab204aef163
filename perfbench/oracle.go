package main

import (
	"context"
	"fmt"
	"math"
	"sort"

	"hashstash"
	"hashstash/internal/plan"
	"hashstash/internal/tpch"
	"hashstash/internal/types"
)

// relTol is the relative tolerance for float cells: parallel and
// reused aggregation sums in a different order than the serial oracle.
const relTol = 1e-9

// oracle is the reference engine every checked answer is compared to:
// no reuse, one worker, one shard, no indexes of either kind, and a
// one-byte cache budget so it holds no artifacts between queries. It
// receives the same appends as the engine under test, at the same points
// of the stream, and runs only outside the timed region.
type oracle struct {
	db *hashstash.DB
	// memo caches answers by SQL text for the current data version; an
	// append clears it.
	memo map[string]*hashstash.Result
}

func newOracle() (*oracle, error) {
	db := hashstash.Open(
		hashstash.WithStrategy(hashstash.NeverReuse),
		hashstash.WithTuning(hashstash.Tuning{Parallelism: 1, CacheBudget: 1}),
		hashstash.WithAblations(hashstash.Ablations{NoSecondaryIndexes: true}),
	)
	// Load the same generated data without the storage indexes
	// DB.LoadTPCH builds, so every filter is a plain scan.
	data, err := tpch.Generate(tpch.Config{SF: scaleFactor, SkipIndexes: true})
	if err != nil {
		return nil, fmt.Errorf("oracle data: %w", err)
	}
	for _, t := range data.Tables() {
		kinds := make(map[string]types.Kind, len(t.Cols))
		order := make([]string, len(t.Cols))
		for i, c := range t.Cols {
			kinds[c.Name], order[i] = c.Kind, c.Name
		}
		rows := make([][]types.Value, t.NumRows())
		for r := range rows {
			rows[r] = make([]types.Value, len(t.Cols))
			for i, c := range t.Cols {
				rows[r][i] = c.Value(r)
			}
		}
		if err := db.CreateTable(t.Name, kinds, order); err != nil {
			return nil, fmt.Errorf("oracle load: %w", err)
		}
		if err := db.InsertRows(t.Name, rows); err != nil {
			return nil, fmt.Errorf("oracle load: %w", err)
		}
	}
	return &oracle{db: db, memo: make(map[string]*hashstash.Result)}, nil
}

func (o *oracle) insert(w write) error {
	o.memo = make(map[string]*hashstash.Result)
	if err := o.db.InsertRows(w.table, w.rows); err != nil {
		return fmt.Errorf("oracle insert into %s: %w", w.table, err)
	}
	return nil
}

// answer returns the reference result of q, keyed by its SQL text.
func (o *oracle) answer(sql string, q *plan.Query) (*hashstash.Result, error) {
	if r, ok := o.memo[sql]; ok {
		return r, nil
	}
	r, err := o.db.ExecParsed(context.Background(), q)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	o.memo[sql] = r
	return r, nil
}

// answerSQL is answer for SQL text the oracle parses itself (the
// open-loop generator emits SQL, not logical queries).
func (o *oracle) answerSQL(sql string) (*hashstash.Result, error) {
	if r, ok := o.memo[sql]; ok {
		return r, nil
	}
	q, err := o.db.Parse(sql)
	if err != nil {
		return nil, fmt.Errorf("oracle parse: %w", err)
	}
	return o.answer(sql, q)
}

// sameAnswer compares an engine answer to the oracle's. Row order is
// normalized unless the query is ordered; float cells compare within
// relTol, every other cell exactly.
func sameAnswer(got, want *hashstash.Result, ordered bool) error {
	if len(got.Columns) != len(want.Columns) {
		return fmt.Errorf("columns %v, want %v", got.Columns, want.Columns)
	}
	for i := range got.Columns {
		if got.Columns[i] != want.Columns[i] {
			return fmt.Errorf("columns %v, want %v", got.Columns, want.Columns)
		}
	}
	return sameRows(got.Rows, want.Rows, ordered)
}

func sameRows(got, want [][]types.Value, ordered bool) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	if !ordered {
		got, want = sortedRows(got), sortedRows(want)
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("row %d has %d cells, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range got[i] {
			if !sameValue(got[i][j], want[i][j]) {
				return fmt.Errorf("row %d cell %d = %v, want %v", i, j, got[i][j], want[i][j])
			}
		}
	}
	return nil
}

func sameValue(a, b types.Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	if a.Kind == types.Float64 {
		if a.F == b.F {
			return true
		}
		return math.Abs(a.F-b.F) <= relTol*math.Max(math.Abs(a.F), math.Abs(b.F))
	}
	return a.Equal(b)
}

// sortedRows orders rows by their exact cells first and their float
// cells last, so rows whose floats differ only within relTol between
// the two answers still line up: in grouped answers the exact cells
// are the group key and decide the order alone.
func sortedRows(rows [][]types.Value) [][]types.Value {
	out := append([][]types.Value(nil), rows...)
	sort.SliceStable(out, func(i, j int) bool {
		if c := compareCells(out[i], out[j], false); c != 0 {
			return c < 0
		}
		return compareCells(out[i], out[j], true) < 0
	})
	return out
}

func compareCells(a, b []types.Value, floats bool) int {
	for k := 0; k < len(a) && k < len(b); k++ {
		if (a[k].Kind == types.Float64) != floats {
			continue
		}
		if c := a[k].Compare(b[k]); c != 0 {
			return c
		}
	}
	return len(a) - len(b)
}
