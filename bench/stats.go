package main

import (
	"math"
	"sort"
	"time"

	"genogo/internal/stats"
)

// tailRank is the 1-based rank, in n sorted samples, of the tail latency the
// benchmark reports: the 95th percentile when at least ten samples lie beyond
// it, otherwise the highest rank that still has ten samples beyond it. With
// twenty samples or fewer that rank would fall below the median, and the
// median is reported.
func tailRank(n int) int {
	if n <= 0 {
		return 0
	}
	p95 := int(math.Ceil(0.95 * float64(n)))
	if n-p95 >= 10 {
		return p95
	}
	if n > 20 {
		return n - 10
	}
	return (n + 1) / 2
}

// tailPercent names the percentile tailRank picks, for the report.
func tailPercent(n int) float64 {
	if n <= 0 {
		return 0
	}
	return 100 * float64(tailRank(n)) / float64(n)
}

// sorted returns an ascending copy.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median of v; 0 when empty.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return stats.Quantile(sorted(v), 0.5)
}

// tail is the sample at tailRank.
func tail(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return sorted(v)[tailRank(len(v))-1]
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(v, n=4) computes them (the exclusive method), which
// is what the driver uses. It needs at least two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := sorted(v)
	m := len(s)
	if m < 2 {
		return math.NaN(), math.NaN()
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the distance between the quartiles as a share of the median; 0
// when there are too few values to have quartiles.
func spread(v []float64) float64 {
	med := median(v)
	if len(v) < 2 || med == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(med)
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// msAll converts durations to milliseconds.
func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
