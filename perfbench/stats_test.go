package main

import (
	"math"
	"reflect"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	if _, err := percentile(seq(999), 0.99); err == nil {
		t.Fatal("p99 of 999 samples has 9 beyond it and must be refused")
	}
	got, err := percentile(seq(1000), 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if got != 990 {
		t.Fatalf("p99 of 1..1000 = %v, want 990 (nearest rank, 10 beyond)", got)
	}
	if _, err := percentile(seq(99), 0.9); err == nil {
		t.Fatal("p90 of 99 samples has 9 beyond it and must be refused")
	}
	if got, err := percentile(seq(100), 0.9); err != nil || got != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90", got, err)
	}
	if got, err := percentile(seq(21), 0.5); err != nil || got != 11 {
		t.Fatalf("p50 of 1..21 = %v, %v; want 11", got, err)
	}
	if _, err := percentile(seq(10), 0.5); err == nil {
		t.Fatal("p50 of 10 samples has 5 beyond it and must be refused")
	}
	for _, q := range []float64{0, 1, -0.5} {
		if _, err := percentile(seq(5000), q); err == nil {
			t.Fatalf("percentile %v accepted", q)
		}
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{4, 1, 3}, 3}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestFastest(t *testing.T) {
	nan := math.NaN()
	runs := [][]float64{
		{5, 1, nan, 4},
		{3, 9, 2, 4},
		{7, 2, 1, 30}, // a stall on the last operation
	}
	got := fastest(runs)
	want := []float64{3, 1, 4} // the third did not run on replica 0
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fastest = %v, want %v", got, want)
	}
	if got := fastest(nil); got != nil {
		t.Fatalf("fastest(nil) = %v", got)
	}
	if got := appendRan([]float64{1}, runs[0]); !reflect.DeepEqual(got, []float64{1, 5, 1, 4}) {
		t.Fatalf("appendRan = %v, want [1 5 1 4]", got)
	}
	if b := beyond(1000, 0.99); b != 10 {
		t.Fatalf("beyond(1000, 0.99) = %d, want 10", b)
	}
}
