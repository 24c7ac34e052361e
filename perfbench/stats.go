package main

import "sort"

// quantile returns the q-quantile (0 <= q <= 1) of sorted by linear
// interpolation between the two closest ranks. It is the estimator every
// latency percentile of the benchmark uses.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(pos)
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// sortedCopy returns values sorted ascending, leaving values untouched.
func sortedCopy(values []float64) []float64 {
	out := append([]float64(nil), values...)
	sort.Float64s(out)
	return out
}

// median is Python's statistics.median: the middle value, or the mean of the
// two middle values.
func median(values []float64) float64 {
	s := sortedCopy(values)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles exactly as Python's
// statistics.quantiles(values, n=4) computes them (the default "exclusive"
// method), which is how the steadiness of the benchmark is judged.
func quartiles(values []float64) (q1, q3 float64) {
	s := sortedCopy(values)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	at := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return at(1), at(3)
}

// mean is the arithmetic mean, 0 for no values.
func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}
