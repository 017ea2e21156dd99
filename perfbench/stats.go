package main

import (
	"math"
	"sort"
)

// quantile returns the nearest-rank q-quantile of ascending samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tailPick is the highest standard percentile a sample set can support.
type tailPick struct {
	q      float64 // the percentile, as a fraction
	value  float64
	n      int // samples
	beyond int // samples ranked above the percentile
}

// tailPercentiles are the candidates, lowest first.
var tailPercentiles = []float64{0.5, 0.9, 0.99, 0.999, 0.9999}

// pickTail returns the highest candidate percentile with at least ten
// samples beyond it, and false when even the median has fewer.
func pickTail(samples []float64) (tailPick, bool) {
	s := sortedCopy(samples)
	best, ok := tailPick{n: len(s)}, false
	for _, q := range tailPercentiles {
		rank := int(math.Ceil(q * float64(len(s))))
		if beyond := len(s) - rank; beyond >= 10 {
			best = tailPick{q: q, value: s[rank-1], n: len(s), beyond: beyond}
			ok = true
		}
	}
	return best, ok
}
