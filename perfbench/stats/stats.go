// Package stats holds the benchmark's arithmetic: sample quantiles, the
// quartile spread used for steadiness, the pair-win rule and the verdict a
// comparison of two result sets reaches against a metric's bound.
package stats

import (
	"math"
	"sort"
)

// Sorted returns a sorted copy of xs.
func Sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Median is the middle value of xs (the mean of the two middle values for
// an even count); NaN when xs is empty.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := Sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the first and third quartiles of xs by the exclusive
// method, the default of Python's statistics.quantiles(xs, n=4), so the
// spreads this harness reports match the ones computed from its output.
// One sample is its own quartiles; NaN when xs is empty.
func Quartiles(xs []float64) (q1, q3 float64) {
	s := Sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// Spread is the quartile distance of xs as a share of its median: the
// steadiness measure the benchmark's bounds are checked against.
func Spread(xs []float64) float64 {
	q1, q3 := Quartiles(xs)
	med := Median(xs)
	if med == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(med)
}

// Percentile returns the nearest-rank p-quantile (0 < p <= 1) of a sorted
// sample: the smallest value with at least p of the samples at or below it.
func Percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(p*float64(n))) - 1
	if k < 0 {
		k = 0
	} else if k >= n {
		k = n - 1
	}
	return sorted[k]
}

// PairWins counts the pairs (parent[i], change[i]) the change wins and
// loses. lowerBetter gives the metric's direction; ties count for neither.
// Pairs beyond the shorter side are ignored.
func PairWins(parent, change []float64, lowerBetter bool) (wins, losses, pairs int) {
	pairs = len(parent)
	if len(change) < pairs {
		pairs = len(change)
	}
	for i := 0; i < pairs; i++ {
		p, c := parent[i], change[i]
		switch {
		case p == c:
		case (c < p) == lowerBetter:
			wins++
		default:
			losses++
		}
	}
	return wins, losses, pairs
}

// Verdicts a comparison can reach.
const (
	Better     = "better"
	Worse      = "worse"
	Same       = "same"
	Unresolved = "unresolved"
)

// Verdict judges one metric of one workload. A gain needs the change to win
// at least nine tenths of the pairs and the medians to differ by more than
// the parent's own quartile distance. A regression is a change median worse
// than the parent's by more than bound (a share of the parent's median).
// When the parent's spread is wider than the bound the comparison cannot
// tell "same" from a regression and reports unresolved, unless every change
// run beats every parent run.
func Verdict(parent, change []float64, lowerBetter bool, bound float64) string {
	if len(parent) == 0 || len(change) == 0 {
		return Unresolved
	}
	pm, cm := Median(parent), Median(change)
	q1, q3 := Quartiles(parent)
	worse := cm - pm
	if !lowerBetter {
		worse = -worse
	}
	wins, _, pairs := PairWins(parent, change, lowerBetter)
	if pairs > 0 && 10*wins >= 9*pairs && -worse > q3-q1 {
		return Better
	}
	if Spread(parent) > bound && !allBetter(parent, change, lowerBetter) {
		return Unresolved
	}
	if worse > bound*math.Abs(pm) {
		return Worse
	}
	return Same
}

// allBetter reports every change value beating every parent value.
func allBetter(parent, change []float64, lowerBetter bool) bool {
	ps, cs := Sorted(parent), Sorted(change)
	if lowerBetter {
		return cs[len(cs)-1] < ps[0]
	}
	return cs[0] > ps[len(ps)-1]
}
