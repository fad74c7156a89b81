package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// metric is one named measurement of a run; its unit is declared.
type metric struct {
	Name  string
	Value float64
}

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between the two nearest ranks. xs need not be sorted and
// is left untouched. An empty sample yields NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean returns the arithmetic mean of xs, NaN when empty.
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

// perSecond returns count per second of d; zero when d is not positive.
func perSecond(count float64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return count / d.Seconds()
}

// ratio returns num/den, or zero when den is zero.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// checkMetrics rejects a metric set with an undeclared, duplicated or
// non-finite entry: the result line must always parse as the benchmark
// declares it.
func checkMetrics(ms []metric) error {
	seen := make(map[string]bool, len(ms))
	for _, m := range ms {
		if _, ok := declared(m.Name); !ok {
			return fmt.Errorf("undeclared metric %q", m.Name)
		}
		if seen[m.Name] {
			return fmt.Errorf("duplicate metric %q", m.Name)
		}
		seen[m.Name] = true
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", m.Name, m.Value)
		}
	}
	return nil
}
