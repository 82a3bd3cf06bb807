package main

import (
	"math"
	"slices"
	"time"
)

// percentile returns the p-quantile (0 <= p <= 1) of values by linear
// interpolation between the two closest ranks, the definition numpy uses by
// default. It sorts a copy; an empty input yields NaN.
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := slices.Clone(values)
	slices.Sort(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(values []float64) float64 { return percentile(values, 0.5) }

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) returns with its default exclusive
// method, so spreads computed here match the ones used to judge the
// benchmark. It needs at least two values; fewer yield NaNs.
func quartiles(values []float64) (q1, q2, q3 float64) {
	ld := len(values)
	if ld < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	s := slices.Clone(values)
	slices.Sort(s)
	var q [3]float64
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// iqrShare is the distance between the first and third quartiles as a share
// of the median: the run-to-run spread a metric's bound must exceed.
func iqrShare(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	return (q3 - q1) / math.Abs(q2)
}

// maxMinSpread is max/min - 1 over values of one sign: how far apart the
// best and worst run of a set are.
func maxMinSpread(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	lo, hi := slices.Min(values), slices.Max(values)
	return hi/lo - 1
}

// suggestBound is the regression bound for a metric: the larger of floor and
// 1.5 times the measured max/min spread, capped at 0.25, the most a bound
// may allow.
func suggestBound(floor, spread float64) float64 {
	return min(max(floor, 1.5*spread), 0.25)
}

func msOf(d time.Duration) float64 { return float64(d) / 1e6 }
