package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (h = (n-1)q). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := float64(len(s)-1) * q
	lo := int(math.Floor(h))
	hi := int(math.Ceil(h))
	return s[lo] + (s[hi]-s[lo])*(h-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// highPercentile is the p90 of xs when at least twenty samples back it, and
// the median otherwise: a window of a dozen batch jobs has no percentile
// above the median with samples enough beyond it to be worth a bound, and a
// blend of its two slowest jobs would gate changes on the host's worst
// moment.
func highPercentile(xs []float64) float64 {
	if len(xs) < 20 {
		return median(xs)
	}
	return quantile(xs, 0.9)
}

// relClose reports whether got is within rel of want, relative to the larger
// magnitude (absolute below 1, so exact zeros compare equal to tiny values).
func relClose(got, want, rel float64) bool {
	if got == want {
		return true
	}
	scale := math.Max(1, math.Max(math.Abs(got), math.Abs(want)))
	return math.Abs(got-want) <= rel*scale
}
