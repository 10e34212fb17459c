// Package benchmark is the repository's end-to-end benchmark: it drives
// the batched inference server in-process and the winograd-bench CLI as
// child processes, checks every output against conv.Direct or the
// committed goldens, and reports timings as medians with quartiles. A
// traced pass records spans around calls into each layer's public
// functions and derives the per-layer metrics from them.
package benchmark

import (
	"math"
	"sort"
)

// Summary is a sample's median and quartiles. Quartiles use the
// "exclusive" method of Python's statistics.quantiles(n=4), so spreads
// printed here match spreads computed from the same values elsewhere.
type Summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// Summarize returns the median and quartiles of values (zero Summary for
// an empty slice). values is not modified.
func Summarize(values []float64) Summary {
	n := len(values)
	if n == 0 {
		return Summary{}
	}
	s := sorted(values)
	q1, q3 := quartiles(s)
	return Summary{Median: median(s), Q1: q1, Q3: q3, N: n}
}

// Spread is the quartile distance as a share of the median.
func (s Summary) Spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
}

func sorted(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

func median(s []float64) float64 {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles follows statistics.quantiles(data, n=4, method="exclusive"):
// cut point i sits at 1-based position i*(n+1)/4, interpolated between
// neighbours. Positions outside the data clamp to its ends, which only
// matters for samples of one or two values.
func quartiles(s []float64) (q1, q3 float64) {
	at := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		delta := i*m - j*4
		if j < 1 {
			return s[0]
		}
		if j >= len(s) {
			return s[len(s)-1]
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// tailLadder lists the percentiles Tail may report, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// Tail returns the highest percentile of tailLadder that has at least
// ten samples beyond it, with its nearest-rank value. ok is false when
// even the median has fewer than ten samples above it.
func Tail(values []float64) (pct, value float64, ok bool) {
	n := len(values)
	s := sorted(values)
	for _, p := range tailLadder {
		rank := int(math.Ceil(p*float64(n)/100 - 1e-9)) // p*n/100 is not exact in binary
		if rank < 1 || n-rank < 10 {
			continue
		}
		return p, s[rank-1], true
	}
	return 0, 0, false
}
