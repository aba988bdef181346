package main

import (
	"math"
	"sort"
)

// median returns the middle value of vs (the mean of the two middle values
// for an even count); 0 for an empty slice.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// percentile returns the p-quantile (0 < p < 1) of an ascending slice by
// the nearest-rank rule; 0 for an empty slice.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// tailPermille are the candidates supportedTail chooses from, highest
// first, in thousandths.
var tailPermille = []int{999, 990, 950, 900, 750}

// supportedTail returns the highest tail percentile that still has at
// least ten of n samples beyond it (the choosing-metrics rule for which
// tail a sample can carry), or 0.5 when not even p75 does.
func supportedTail(n int) float64 {
	for _, pm := range tailPermille {
		if n*(1000-pm) >= 10*1000 {
			return float64(pm) / 1000
		}
	}
	return 0.5
}

// quartiles returns the first and third quartile of vs by the exclusive
// method Python's statistics.quantiles(vs, n=4) uses, so -selfcheck judges
// spread exactly as the driver does.  It needs at least two values.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range of vs as a share of its median.
func spread(vs []float64) float64 {
	q1, q3 := quartiles(vs)
	m := median(vs)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}
