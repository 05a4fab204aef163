package main

import (
	"reflect"
	"testing"

	"hashstash/internal/workload"
)

// TestInputsDeterministic checks that a seed fixes every input the
// benchmark sends: query texts, appended rows and open-loop arrivals.
func TestInputsDeterministic(t *testing.T) {
	for _, w := range []*closedLoop{explore, dashboard, sharded} {
		a, err := w.queries(7, 3)
		if err != nil {
			t.Fatal(err)
		}
		b, err := w.queries(7, 3)
		if err != nil {
			t.Fatal(err)
		}
		c, err := w.queries(8, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) == 0 || len(a) != len(b) {
			t.Fatalf("%s: %d and %d queries", w.name, len(a), len(b))
		}
		same := true
		for i := range a {
			if a[i].sql != b[i].sql {
				t.Fatalf("%s: query %d differs for one seed: %q vs %q", w.name, i, a[i].sql, b[i].sql)
			}
			same = same && i < len(c) && a[i].sql == c[i].sql
		}
		if same {
			t.Fatalf("%s: seeds 7 and 8 give the same queries", w.name)
		}
		if x, y := w.write(newRNG(derive(7, saltWrites)), 2, w.batch), w.write(newRNG(derive(7, saltWrites)), 2, w.batch); !reflect.DeepEqual(x, y) {
			t.Fatalf("%s: appended rows differ for one seed", w.name)
		}
	}
	arrive := func(seed uint64) []workload.Arrival {
		return workload.GenerateOpenLoop(100, 150, workload.MixSimilar, serveTenants, derive(seed, saltServe))
	}
	if !reflect.DeepEqual(arrive(7), arrive(7)) || reflect.DeepEqual(arrive(7), arrive(8)) {
		t.Fatal("open-loop arrivals do not follow the seed")
	}
	if sampled(7, 1, "SELECT 1", 0.5) != sampled(7, 1, "SELECT 1", 0.5) {
		t.Fatal("answer sampling is not deterministic")
	}
}

// TestAppendedKeysAreNew checks that appended rows never reuse a key:
// answers must change only as the oracle predicts.
func TestAppendedKeysAreNew(t *testing.T) {
	seen := map[int64]bool{}
	r := newRNG(1)
	for n := 0; n < 4; n++ {
		for _, w := range []write{partBatch(r, n, batchRows), ordersBatch(r, n+4, batchRows)} {
			for _, row := range w.rows {
				if k := row[0].I; k < newKeyBase || seen[k] {
					t.Fatalf("%s key %d reused or below %d", w.table, k, newKeyBase)
				}
				seen[row[0].I] = true
			}
		}
	}
}
