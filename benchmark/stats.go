package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0..1) of sorted by the nearest-rank
// rule: the smallest value with at least p of the samples at or below it.
// It never interpolates, so a reported latency is one that was observed.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// median returns the middle of vs (mean of the two middles for an even
// count) without reordering the caller's slice.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// steady is the figure a run reports for a per-slice metric: the mean of
// the slices left after the worst third of them (rounded down: two of six)
// is dropped, worst by the metric's own direction. What disturbs a slice
// on a shared machine only ever makes it worse, so the slices that suffered
// most say least about the program; dropping them and averaging the rest
// uses four slices where the median of six uses two, and over 18 sets of
// ten recorded runs it spread 13 % less from run to run than the median
// did (README, calibration.txt section 9). A change in the program moves
// every slice, the kept ones too.
func steady(vs []float64, better string) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	drop := len(s) / 3
	if better == higher {
		s = s[drop:]
	} else {
		s = s[:len(s)-drop]
	}
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// quartiles returns the first and third quartile of vs the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which is
// what the driver computes spreads with. It needs at least two values.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(vs []float64) float64 {
	m := median(vs)
	if m == 0 || len(vs) < 2 {
		return 0
	}
	q1, q3 := quartiles(vs)
	return math.Abs(q3-q1) / math.Abs(m)
}

// worseBy reports by what share of base the value cur is worse, given
// the metric's direction; negative means better.
func worseBy(better string, base, cur float64) float64 {
	if base == 0 {
		return 0
	}
	if better == higher {
		return (base - cur) / math.Abs(base)
	}
	return (cur - base) / math.Abs(base)
}
