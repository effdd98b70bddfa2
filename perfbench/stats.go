package main

import (
	"math"
	"sort"
)

// miss is the latency recorded for a request that failed or was shed: it
// misses every latency limit, so it sorts above every real latency.
var miss = math.Inf(1)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// xs, which it sorts in place. Misses (+Inf) take part in the ranking, so
// a percentile whose rank falls among them is itself a miss. An empty
// sample has no percentile and returns NaN.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1]
}

// median returns the middle of xs (the mean of the two middle values for
// an even count) without modifying it.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the same
// rule as Python's statistics.quantiles(xs, n=4) (the "exclusive"
// method), so spreads computed here match the ones the acceptance check
// computes. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld == 0 {
		return math.NaN(), math.NaN()
	}
	if ld == 1 {
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// mean returns the arithmetic mean of xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// coverage returns how much of [lo, hi) the union of the given intervals
// covers. Intervals may overlap each other (children running on
// several goroutines at once) and may stick out of the window; only the
// part inside counts, once.
func coverage(lo, hi int64, spans []span) int64 {
	clipped := make([]span, 0, len(spans))
	for _, s := range spans {
		a, b := s.start, s.end
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			clipped = append(clipped, span{start: a, end: b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var covered, curA, curB int64
	open := false
	for _, s := range clipped {
		if open && s.start <= curB {
			if s.end > curB {
				curB = s.end
			}
			continue
		}
		if open {
			covered += curB - curA
		}
		curA, curB, open = s.start, s.end, true
	}
	if open {
		covered += curB - curA
	}
	return covered
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(parent span, children []span) int64 {
	return parent.end - parent.start - coverage(parent.start, parent.end, children)
}
