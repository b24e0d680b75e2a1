// Package measure holds the benchmark's estimators and its in-memory span
// recorder. It imports nothing from the repository, so the numbers it
// produces cannot change with the code they measure.
package measure

import (
	"math"
	"sort"
)

// Median returns the middle of xs (the mean of the two middles for an even
// count) without reordering xs. It is NaN for an empty slice, so a missing
// sample shows up in the report instead of reading as zero.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics, without reordering xs.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// Quartiles returns the first and third quartile of xs by the "exclusive"
// method — the one Python's statistics.quantiles(xs, n=4) uses and therefore
// the one the acceptance gate applies to this benchmark's runs.
func Quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 { // k-th of 4 cut points over n+1 gaps
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := k*(n+1) - j*4 // after the clamp, as Python does: tiny samples extrapolate
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// Spread is the interquartile range of xs as a share of its median — the
// dispersion the gate compares against a metric's bound.
func Spread(xs []float64) float64 {
	q1, q3 := Quartiles(xs)
	return (q3 - q1) / math.Abs(Median(xs))
}
