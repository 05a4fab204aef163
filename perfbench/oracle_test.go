package main

import (
	"testing"

	"hashstash"
	"hashstash/internal/types"
)

func rows(cells ...[]types.Value) *hashstash.Result {
	return &hashstash.Result{Columns: []string{"k", "v"}, Rows: cells}
}

func row(k int64, v float64) []types.Value { return []types.Value{types.NewInt(k), types.NewFloat(v)} }

func TestSameAnswerFloatTolerance(t *testing.T) {
	want := rows(row(1, 1e6), row(2, 0))
	if err := sameAnswer(rows(row(1, 1e6*(1+5e-10)), row(2, 0)), want, false); err != nil {
		t.Fatalf("5e-10 relative difference rejected: %v", err)
	}
	if err := sameAnswer(rows(row(1, 1e6*(1+5e-9)), row(2, 0)), want, false); err == nil {
		t.Fatal("5e-9 relative difference accepted")
	}
	if err := sameAnswer(rows(row(1, 1e6), row(2, 1e-300)), want, false); err == nil {
		t.Fatal("a non-zero value accepted for zero")
	}
}

func TestSameAnswerExactCells(t *testing.T) {
	want := rows(row(1, 2))
	got := rows([]types.Value{types.NewFloat(1), types.NewFloat(2)})
	if err := sameAnswer(got, want, false); err == nil {
		t.Fatal("a float cell accepted for an int cell")
	}
	if err := sameAnswer(rows(row(2, 2)), want, false); err == nil {
		t.Fatal("a different group key accepted")
	}
	if err := sameAnswer(rows(row(1, 2), row(1, 2)), want, false); err == nil {
		t.Fatal("an extra row accepted")
	}
	renamed := rows(row(1, 2))
	renamed.Columns = []string{"k", "w"}
	if err := sameAnswer(renamed, want, false); err == nil {
		t.Fatal("a different column name accepted")
	}
}

func TestSameAnswerRowOrder(t *testing.T) {
	want := rows(row(1, 10), row(2, 20), row(3, 30))
	shuffled := rows(row(3, 30), row(1, 10), row(2, 20*(1+1e-12)))
	if err := sameAnswer(shuffled, want, false); err != nil {
		t.Fatalf("unordered query: row order not normalized: %v", err)
	}
	if err := sameAnswer(shuffled, want, true); err == nil {
		t.Fatal("ordered query: a different row order accepted")
	}
	if err := sameAnswer(rows(row(1, 10), row(2, 20), row(3, 30)), want, true); err != nil {
		t.Fatalf("ordered query: same order rejected: %v", err)
	}
}

// TestOracleSeesAppends checks that the oracle answers from plain scans:
// a row appended inside a filtered range must change the answer.
func TestOracleSeesAppends(t *testing.T) {
	o, err := newOracle()
	if err != nil {
		t.Fatal(err)
	}
	const sql = "SELECT SUM(o.o_totalprice) AS s FROM orders o WHERE o.o_orderdate >= DATE '1995-01-01' AND o.o_orderdate < DATE '1996-01-01'"
	before, err := o.answerSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	day, err := types.ParseDate("1995-06-01")
	if err != nil {
		t.Fatal(err)
	}
	w := write{table: "orders", rows: [][]types.Value{{
		types.NewInt(newKeyBase), types.NewInt(7), types.NewDate(day),
		types.NewFloat(1000), types.NewInt(0), types.NewString("O"),
	}}}
	if err := o.insert(w); err != nil {
		t.Fatal(err)
	}
	after, err := o.answerSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	if d := after.Rows[0][0].F - before.Rows[0][0].F; d != 1000 {
		t.Fatalf("appended 1000 inside the range, answer moved by %v", d)
	}
}
