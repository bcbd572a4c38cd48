package main

import (
	"math"
	"slices"
	"time"
)

// median of xs (the mean of the middle two for an even count); 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// kindMedian is the median over request kinds of each kind's median. Every
// kind counts once however many samples it has. A pooled median would sit on
// the boundary between two groups of kinds whenever the mix splits evenly
// (six cheap and six expensive top-k requests, say) and jump between them
// from run to run; the median of per-kind medians does not.
func kindMedian(byKind map[int][]float64) float64 { return perKind(byKind, median) }

// kindFast is the median over request kinds of the mean of each kind's
// fastest 5% of samples (at least one).
func kindFast(byKind map[int][]float64) float64 {
	return perKind(byKind, func(xs []float64) float64 {
		s := slices.Clone(xs)
		slices.Sort(s)
		s = s[:max(1, int(math.Round(0.05*float64(len(s)))))]
		var sum float64
		for _, x := range s {
			sum += x
		}
		return sum / float64(len(s))
	})
}

// perKind applies stat to each kind's samples and returns the median of the
// results; kinds without samples are skipped.
func perKind(byKind map[int][]float64, stat func([]float64) float64) float64 {
	var vs []float64
	for _, xs := range byKind {
		if len(xs) > 0 {
			vs = append(vs, stat(xs))
		}
	}
	return median(vs)
}

// percentile returns the nearest-rank pct-th percentile of xs and how many
// samples lie beyond it.
func percentile(xs []float64, pct float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(pct / 100 * float64(len(s))))
	rank = max(1, min(rank, len(s)))
	return s[rank-1], len(s) - rank
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
