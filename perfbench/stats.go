package main

import (
	"regexp"
	"sort"
)

// metricName is the syntax every reported metric name must match.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// quantile returns the nearest-rank quantile of sorted samples at the
// given per-mille (500 is the median, 990 the 99th percentile), or 0 for
// an empty slice.
func quantile(sorted []float64, perMille int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankIndex(len(sorted), perMille)]
}

// rankIndex is the index of the nearest-rank per-mille quantile among
// n > 0 samples, in integer arithmetic so that no rank is off by one.
func rankIndex(n, perMille int) int {
	return max((n*perMille+999)/1000-1, 0)
}

// sortedCopy returns the samples in ascending order without touching the
// caller's slice.
func sortedCopy(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}

// median returns the nearest-rank median of samples.
func median(samples []float64) float64 {
	return quantile(sortedCopy(samples), 500)
}

// tailLadder lists the per-mille quantiles a tail is reported at,
// highest first.
var tailLadder = []int{999, 990, 900, 750, 500}

// tail is a tail percentile with the sample count behind it.
type tail struct {
	Pct    float64 // percentile, e.g. 99
	Value  float64
	N      int // samples
	Beyond int // samples strictly above the percentile's rank
}

// tailOf returns the highest percentile of tailLadder that has at least
// ten samples beyond it. ok is false when there are too few samples for
// even the median to qualify.
func tailOf(samples []float64) (t tail, ok bool) {
	s := sortedCopy(samples)
	for _, p := range tailLadder {
		if len(s) == 0 {
			break
		}
		i := rankIndex(len(s), p)
		if beyond := len(s) - 1 - i; beyond >= 10 {
			return tail{Pct: float64(p) / 10, Value: s[i], N: len(s), Beyond: beyond}, true
		}
	}
	return tail{N: len(s)}, false
}

// interval is a half-open time range [lo, hi) in nanoseconds.
type interval struct{ lo, hi int64 }

// unionWithin returns how much of [lo, hi) the union of ivs covers.
// Overlapping and nested intervals count once, which is what makes the
// self time of a span with concurrent children correct.
func unionWithin(lo, hi int64, ivs []interval) int64 {
	if len(ivs) == 0 {
		return 0
	}
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if a < b {
			clipped = append(clipped, interval{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var covered, end int64
	end = lo
	for _, iv := range clipped {
		if iv.hi <= end {
			continue
		}
		covered += iv.hi - max(iv.lo, end)
		end = iv.hi
	}
	return covered
}

// selfTime is the length of [lo, hi) not covered by any child interval.
func selfTime(lo, hi int64, children []interval) int64 {
	return hi - lo - unionWithin(lo, hi, children)
}
