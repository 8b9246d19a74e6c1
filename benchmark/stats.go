package main

import (
	"math"
	"slices"
)

// median returns the middle of xs (mean of the two middle values when
// even); NaN for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// typical is what a metric reports from the samples of one run: the mean
// of their lower half (the smaller ⌈n/2⌉ values); NaN for none. This
// host's noise is one-sided: a neighbour's burst on the shared machine
// slows samples for seconds at a time and nothing speeds them up. Dropping
// the upper half discards a burst that hit fewer than half the rounds, and
// averaging the rest keeps one lucky sample from deciding the value. Over
// ten runs each, the interquartile spread of the per-run values was, mean
// over the time metrics (worst in brackets): calm host, wire_windows 0.063
// (0.149) against the median's 0.079 (0.152) and the minimum's 0.063
// (0.194); calm host, rest_unique 0.062 (0.107) against 0.053 (0.122) and
// 0.088 (0.124); rest_dup beside a process burning one CPU for 0.3-3 s a
// third of the time, 0.039 (0.062) against 0.080 (0.253) and 0.056 (0.116).
func typical(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	s = s[:(len(s)+1)/2]
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), which is
// what the acceptance check of this benchmark uses. It needs two values.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4 // outside 0..4 at the clamped ends: extrapolates, as Python does
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// rank returns the q-quantile of ascending sorted by nearest rank: the
// smallest value with at least a share q of the values at or below it.
func rank(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// rotation returns the order in which a round visits n columns: all of
// them once, starting one further along each round, so that every column's
// samples are spread over the whole run and host drift hits all alike.
func rotation(round, n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = (round + i) % n
	}
	return order
}
