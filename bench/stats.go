package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of xs by the nearest-rank
// rule on a sorted copy; 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// fifthsSpread cuts the time-ordered sample into five equal-count fifths and
// returns (max-min)/median of their p-th percentiles: how much the statistic
// drifted inside one run.
func fifthsSpread(xs []float64, p float64) float64 {
	n := len(xs) / 5
	if n == 0 {
		return 0
	}
	var parts []float64
	for i := 0; i < 5; i++ {
		parts = append(parts, percentile(xs[i*n:(i+1)*n], p))
	}
	sort.Float64s(parts)
	if parts[2] == 0 {
		return 0
	}
	return (parts[4] - parts[0]) / parts[2]
}

// quartiles mirrors Python's statistics.quantiles(values, n=4) (the default
// "exclusive" method), which is how the acceptance rule measures run-to-run
// spread. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	cut := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}
