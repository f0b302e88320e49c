package main

import (
	"math"
	"sort"
)

// median returns the median of vs (mean of the two middle values for an
// even count). vs is not modified. An empty slice yields 0.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartileSpread is the distance between the first and third quartile of
// vs as a share of their median — the run-to-run spread the compare tool
// and the contract judge a bound against. Quartiles follow Python's
// statistics.quantiles(values, n=4) (the exclusive method), so the
// number printed here is the one the driver computes.
func quartileSpread(vs []float64) float64 {
	n := len(vs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		// Exclusive method: position k*(n+1)/4, 1-based, clamped.
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return math.Abs(q(3)-q(1)) / math.Abs(m)
}

// percentileNS returns the p-th percentile (0 < p < 100) of sorted
// nanosecond samples by the nearest-rank method.
func percentileNS(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tailCandidates are the percentiles a latency report may quote, low to
// high.
var tailCandidates = []float64{90, 99, 99.9, 99.99}

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: fewer and the figure is set by a handful of outliers.
const minBeyond = 10

// highestPercentile returns the highest candidate percentile that still
// has at least minBeyond of n samples beyond it; ok is false when even
// the lowest candidate does not (n < 100), in which case only the median
// is reportable.
func highestPercentile(n int) (p float64, ok bool) {
	for _, c := range tailCandidates {
		if samplesBeyond(n, c) >= minBeyond {
			p, ok = c, true
		}
	}
	return p, ok
}

// samplesBeyond is how many of n samples lie beyond the p-th percentile.
func samplesBeyond(n int, p float64) int {
	return int(math.Round(float64(n)*(100-p)/100*1e6) / 1e6) // 10000 * 0.1% is ten, not 9.999...
}

// supportsP99 reports whether n samples are enough to quote a p99
// (at least minBeyond samples beyond it, i.e. n >= 1000).
func supportsP99(n int) bool { return samplesBeyond(n, 99) >= minBeyond }

func ms(ns int64) float64 { return float64(ns) / 1e6 }
