package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs by linear
// interpolation between closest ranks. It sorts a copy; an empty input is 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// dueLatencyMs is the open-loop latency of a request: completion minus the
// time it was scheduled to be sent, so a stall that delays later sends is
// charged to them (coordinated-omission-free).
func dueLatencyMs(due, done time.Time) float64 {
	return float64(done.Sub(due)) / float64(time.Millisecond)
}

// quartiles returns Q1, Q2, Q3 with the method of Python's
// statistics.quantiles(values, n=4) (exclusive), which is what the acceptance
// procedure uses; fewer than two values return the single value thrice.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		// position i·(n+1)/4, 1-based, clamped to the sample range
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// relSpread is the interquartile distance as a share of the median.
func relSpread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
