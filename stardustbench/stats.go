package main

import (
	"fmt"
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics; NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
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

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles matches Python's statistics.quantiles(xs, n=4) with its
// default exclusive method.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(j int) float64 {
		m := float64(j*(n+1)) / 4
		i := int(math.Floor(m))
		frac := m - float64(i)
		switch {
		case i < 1:
			return s[0]
		case i >= n:
			return s[n-1]
		}
		return s[i-1] + (s[i]-s[i-1])*frac
	}
	return at(1), at(2), at(3)
}

// requireSamples guards a reported median: below forty samples it would
// say little about the run.
func requireSamples(name string, xs []float64, minN int) error {
	if len(xs) < minN {
		return fmt.Errorf("%s: %d samples, need at least %d", name, len(xs), minN)
	}
	return nil
}
