package benchmark

import (
	"reflect"
	"testing"
)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	return v
}

// TestTailPicksHighestSupportedPercentile: the reported percentile is
// the highest with at least ten samples above it, valued by nearest rank.
func TestTailPicksHighestSupportedPercentile(t *testing.T) {
	for _, tc := range []struct {
		n        int
		pct, val float64
		ok       bool
	}{
		{n: 10000, pct: 99.9, val: 9990, ok: true},
		{n: 1000, pct: 99, val: 990, ok: true},
		{n: 999, pct: 95, val: 950, ok: true}, // p99 would leave 9 above
		{n: 200, pct: 95, val: 190, ok: true},
		{n: 100, pct: 90, val: 90, ok: true},
		{n: 20, pct: 50, val: 10, ok: true},
		{n: 19, ok: false},
	} {
		pct, val, ok := Tail(seq(tc.n))
		if ok != tc.ok || pct != tc.pct || val != tc.val {
			t.Errorf("n=%d: Tail = (p%g, %g, %t), want (p%g, %g, %t)", tc.n, pct, val, ok, tc.pct, tc.val, tc.ok)
		}
	}
}

// TestSummarize checks the median and the quartiles against values
// Python's statistics.quantiles(data, n=4) gives for the same data.
func TestSummarize(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want Summary
	}{
		{seq(10), Summary{Median: 5.5, Q1: 2.75, Q3: 8.25, N: 10}},
		{seq(5), Summary{Median: 3, Q1: 1.5, Q3: 4.5, N: 5}},
		{[]float64{3, 1, 2}, Summary{Median: 2, Q1: 1, Q3: 3, N: 3}},
		{[]float64{4, 8}, Summary{Median: 6, Q1: 4, Q3: 8, N: 2}},
		{[]float64{7}, Summary{Median: 7, Q1: 7, Q3: 7, N: 1}},
		{nil, Summary{}},
	} {
		in := append([]float64(nil), tc.in...)
		if got := Summarize(in); got != tc.want {
			t.Errorf("Summarize(%v) = %+v, want %+v", tc.in, got, tc.want)
		}
		if !reflect.DeepEqual(in, tc.in) && tc.in != nil {
			t.Errorf("Summarize reordered its input %v to %v", tc.in, in)
		}
	}
	if s := Summarize(seq(10)).Spread(); s != (8.25-2.75)/5.5 {
		t.Errorf("Spread = %g, want %g", s, (8.25-2.75)/5.5)
	}
}
