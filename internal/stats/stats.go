// Package stats computes the latency statistics the paper reports: average,
// worst case, jitter (standard deviation of latency), quantiles, and CDFs.
package stats

import (
	"math"
	"sort"
	"time"
)

// Summary aggregates a latency sample set.
type Summary struct {
	// Count is the number of samples.
	Count int
	// Mean is the average latency.
	Mean time.Duration
	// Min and Max are the best and worst observed latencies.
	Min time.Duration
	Max time.Duration
	// StdDev is the standard deviation of latency — the paper's jitter
	// metric.
	StdDev time.Duration
}

// Summarize computes a Summary over the samples. An empty input yields a
// zero Summary.
func Summarize(samples []time.Duration) Summary {
	if len(samples) == 0 {
		return Summary{}
	}
	s := Summary{Count: len(samples), Min: samples[0], Max: samples[0]}
	var sum float64
	for _, x := range samples {
		sum += float64(x)
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	mean := sum / float64(len(samples))
	s.Mean = time.Duration(mean)
	var sq float64
	for _, x := range samples {
		d := float64(x) - mean
		sq += float64(d * d) // rounded product: no fused multiply-add on any host
	}
	s.StdDev = time.Duration(math.Sqrt(sq / float64(len(samples))))
	return s
}

// Quantile returns the q-quantile (0 <= q <= 1) of the samples using
// nearest-rank interpolation. The input need not be sorted.
func Quantile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := float64(q * float64(len(sorted)-1)) // rounded, not fused into frac
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + time.Duration(frac*float64(sorted[lo+1]-sorted[lo]))
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	// Latency is the sample value.
	Latency time.Duration
	// Fraction is P(X <= Latency).
	Fraction float64
}

// CDF returns the empirical CDF of the samples down-sampled to at most
// points entries (always including the max). The input need not be sorted.
func CDF(samples []time.Duration, points int) []CDFPoint {
	if len(samples) == 0 || points <= 0 {
		return nil
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	if points > len(sorted) {
		points = len(sorted)
	}
	out := make([]CDFPoint, 0, points)
	for k := 1; k <= points; k++ {
		idx := k*len(sorted)/points - 1
		out = append(out, CDFPoint{
			Latency:  sorted[idx],
			Fraction: float64(idx+1) / float64(len(sorted)),
		})
	}
	return out
}

// Reduction returns how much smaller the candidate is than the baseline, in
// percent: 100 * (base - candidate) / base. A negative result means the
// candidate is larger.
func Reduction(base, candidate time.Duration) float64 {
	if base == 0 {
		return 0
	}
	return 100 * float64(base-candidate) / float64(base)
}

// Ratio returns base/candidate as a factor ("an order of magnitude lower"
// corresponds to a ratio >= 10).
func Ratio(base, candidate time.Duration) float64 {
	if candidate == 0 {
		return math.Inf(1)
	}
	return float64(base) / float64(candidate)
}
