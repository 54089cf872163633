package main

import (
	"math"
	"sort"
)

// tailLadder lists the percentiles a tail is reported at, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// summary describes one timing's samples: the median, the highest ladder
// percentile with at least ten samples beyond it, and the sample count.
// TailPct is 0 when no ladder percentile qualifies (fewer than 20 samples).
type summary struct {
	N       int
	P50     float64
	TailPct float64
	Tail    float64
}

// summarize applies the percentile rule to xs, which it does not modify.
func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := summary{N: len(s)}
	if len(s) == 0 {
		return out
	}
	out.P50 = median(s)
	for _, q := range tailLadder {
		if i := nearestRank(q, len(s)); len(s)-1-i >= 10 {
			out.TailPct, out.Tail = q, s[i]
			break
		}
	}
	return out
}

// nearestRank is the 0-based index of percentile q among n sorted samples.
// The epsilon keeps q*n that is whole in exact arithmetic (99.9 of 10000)
// from rounding up a rank.
func nearestRank(q float64, n int) int {
	k := int(math.Ceil(q*float64(n)/100 - 1e-9))
	if k < 1 {
		k = 1
	}
	return k - 1
}

// median of sorted samples; the mean of the middle two for an even count.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}
