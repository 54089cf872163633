package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: summarize must sort
	}
	return xs
}

func TestSummarizePercentileRule(t *testing.T) {
	cases := []struct {
		n       int
		p50     float64
		tailPct float64
		tail    float64
	}{
		{n: 0},
		{n: 1, p50: 1},
		{n: 19, p50: 10}, // no ladder percentile has 10 samples beyond it
		{n: 20, p50: 10.5, tailPct: 50, tail: 10},  // p50 is rank 10: 10 beyond
		{n: 39, p50: 20, tailPct: 50, tail: 20},    // p75 is rank 30: 9 beyond
		{n: 40, p50: 20.5, tailPct: 75, tail: 30},  // p75 is rank 30: 10 beyond
		{n: 100, p50: 50.5, tailPct: 90, tail: 90}, // p95 is rank 95: 5 beyond
		{n: 311, p50: 156, tailPct: 95, tail: 296},
		{n: 1000, p50: 500.5, tailPct: 99, tail: 990},
		{n: 10000, p50: 5000.5, tailPct: 99.9, tail: 9990},
	}
	for _, c := range cases {
		xs := seq(c.n)
		s := summarize(xs)
		if s.N != c.n || s.P50 != c.p50 || s.TailPct != c.tailPct || s.Tail != c.tail {
			t.Errorf("n=%d: got %+v, want N=%d P50=%g p%g=%g", c.n, s, c.n, c.p50, c.tailPct, c.tail)
		}
		if c.n > 1 && xs[0] != float64(c.n) {
			t.Errorf("n=%d: summarize reordered its input", c.n)
		}
	}
}

func TestSummarizeTailHasTenBeyond(t *testing.T) {
	for n := 20; n <= 3000; n += 7 {
		s := summarize(seq(n))
		beyond := 0
		for _, x := range seq(n) {
			if x > s.Tail {
				beyond++
			}
		}
		if beyond < 10 {
			t.Fatalf("n=%d: p%g leaves %d samples beyond it", n, s.TailPct, beyond)
		}
		for _, q := range tailLadder {
			if q > s.TailPct && n-1-nearestRank(q, n) >= 10 {
				t.Fatalf("n=%d: p%g qualifies but p%g was reported", n, q, s.TailPct)
			}
		}
		if math.IsNaN(s.P50) {
			t.Fatalf("n=%d: NaN median", n)
		}
	}
}
