package main

import (
	"math"
	"sort"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs; NaN when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1, Q2 and Q3 the way Python's
// statistics.quantiles(xs, n=4) computes them (the default
// "exclusive" method), so spreads match the acceptance check.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// tailBeyond is how many samples a tail percentile leaves above it.
const tailBeyond = 10

// tail returns the highest percentile that has at least tailBeyond
// samples beyond it: the (tailBeyond+1)-th largest sample, and that
// sample's percentile rank. ok is false with too few samples.
func tail(xs []float64) (value, pct float64, ok bool) {
	n := len(xs)
	if n <= tailBeyond {
		return math.NaN(), 0, false
	}
	s := sorted(xs)
	return s[n-1-tailBeyond], 100 * float64(n-tailBeyond) / float64(n), true
}

// mean of xs; NaN when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
