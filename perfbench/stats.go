package main

import (
	"fmt"
	"math"
	"sort"

	"anyk/internal/core"
)

// samples keeps every observation so percentiles come from the sorted
// values themselves, never from histogram buckets.
type samples []float64

func (s samples) sorted() []float64 {
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	return c
}

// median is the middle value (mean of the two middle values for even n).
func (s samples) median() float64 {
	c := s.sorted()
	n := len(c)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// quantile is the q-quantile interpolated linearly between the two nearest
// sorted samples (numpy's default). With fewer than 100 samples a
// nearest-rank p99 would be the maximum, a single outlier.
func (s samples) quantile(q float64) float64 {
	c := s.sorted()
	if len(c) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(c)-1)
	i := int(pos)
	if i >= len(c)-1 {
		return c[len(c)-1]
	}
	return c[i] + (pos-float64(i))*(c[i+1]-c[i])
}

// tail is the highest percentile that still has at least ten samples beyond
// it. With fewer than 21 samples no percentile above the median qualifies,
// and the median is reported. It returns the value and the percentile used.
func (s samples) tail() (float64, float64) {
	c := s.sorted()
	n := len(c)
	if n == 0 {
		return math.NaN(), 0
	}
	i := n - 11
	if i < n/2 {
		return s.median(), 50
	}
	return c[i], 100 * float64(i+1) / float64(n)
}

func (s samples) mean() float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// opSamples holds per-op observations split by algorithm.
type opSamples struct {
	by map[core.Algorithm]map[string]samples
}

func newOpSamples() *opSamples {
	return &opSamples{by: map[core.Algorithm]map[string]samples{}}
}

func (o *opSamples) add(alg core.Algorithm, name string, v float64) {
	if o.by[alg] == nil {
		o.by[alg] = map[string]samples{}
	}
	o.by[alg][name] = append(o.by[alg][name], v)
}

// median is the mean of the per-algorithm medians. Ops alternate Take2 and
// Recursive, whose costs can differ by 2x (full drains); a pooled median of
// such a two-mode sample would jump between the modes from run to run.
func (o *opSamples) median(name string) float64 {
	sum, n := 0.0, 0
	for _, alg := range opAlgs {
		if s := o.by[alg][name]; len(s) > 0 {
			sum += s.median()
			n++
		}
	}
	return sum / float64(n)
}

// pooled is every algorithm's samples together, for tail percentiles.
func (o *opSamples) pooled(name string) samples {
	var out samples
	for _, alg := range opAlgs {
		out = append(out, o.by[alg][name]...)
	}
	return out
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects a run's reported numbers plus human-readable notes that
// are printed above the result line.
type metrics struct {
	m     map[string]metric
	notes []string
}

func newMetrics() *metrics { return &metrics{m: map[string]metric{}} }

func (m *metrics) set(name, unit string, v float64) { m.m[name] = metric{v, unit} }

func (m *metrics) note(format string, args ...any) {
	m.notes = append(m.notes, fmt.Sprintf(format, args...))
}

// zeroIfNaN maps "no sample" to 0 for per-layer numbers of layers a workload
// never calls (JSON has no NaN).
func zeroIfNaN(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}
