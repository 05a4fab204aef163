package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile:
// a p99 needs at least 1000 samples, a p90 at least 100.
const minTail = 10

// percentile returns the q-quantile (0 < q < 1) of xs by nearest rank.
// It refuses a percentile that fewer than minTail samples lie beyond,
// so a tail figure always rests on a tail.
func percentile(xs []float64, q float64) (float64, error) {
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile %v outside (0,1)", q)
	}
	n := len(xs)
	idx := max(int(math.Ceil(q*float64(n)))-1, 0)
	if b := n - 1 - idx; b < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", q*100, n, b, minTail)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[idx], nil
}

// beyond is how many of n samples lie beyond their q-quantile.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// median is the middle value (mean of the two middle values for even
// counts); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// nanSlice returns n NaNs: operations that have not run.
func nanSlice(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = math.NaN()
	}
	return xs
}

// appendRan appends the times of xs that are not NaN.
func appendRan(dst, xs []float64) []float64 {
	for _, x := range xs {
		if !math.IsNaN(x) {
			dst = append(dst, x)
		}
	}
	return dst
}

// fastest takes runs[r][i], replica r's time for operation i (NaN where
// it did not run or failed), and returns each operation's fastest time,
// in order, leaving out operations that did not run on every replica.
func fastest(runs [][]float64) []float64 {
	if len(runs) == 0 {
		return nil
	}
	var out []float64
	for i := range runs[0] {
		best := math.Inf(1)
		for _, r := range runs {
			best = math.Min(best, r[i]) // NaN wins
		}
		if !math.IsNaN(best) {
			out = append(out, best)
		}
	}
	return out
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reaches).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
