package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: a tail read off fewer samples is one outlier.
const minBeyond = 10

// tailLadder lists the percentiles a tail may be reported at, highest
// first. The tail of a sample is the first rung with minBeyond samples
// beyond it.
var tailLadder = []float64{99, 95, 90, 75, 50}

// rank is the 1-based nearest-rank position of percentile p in n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond counts the samples that lie strictly above the p-th percentile's
// rank in n samples.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// percentile reads the exact nearest-rank p-th percentile from ascending
// samples; no interpolation, so the value is always a measured sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// tailPercentile returns the highest ladder percentile that has at least
// minBeyond samples beyond it in n samples; ok is false when even the
// median lacks that support.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailLadder {
		if beyond(n, p) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// dist is a sorted sample with its summary readings.
type dist struct {
	sorted []float64
}

func newDist(xs []float64) dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return dist{sorted: s}
}

func (d dist) n() int               { return len(d.sorted) }
func (d dist) p50() float64         { return percentile(d.sorted, 50) }
func (d dist) at(p float64) float64 { return percentile(d.sorted, p) }

// tail reads the distribution at its supported tail percentile.
func (d dist) tail() (p, v float64, ok bool) {
	p, ok = tailPercentile(d.n())
	if !ok {
		return 0, 0, false
	}
	return p, d.at(p), true
}

func (d dist) mean() float64 {
	if len(d.sorted) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range d.sorted {
		sum += x
	}
	return sum / float64(len(d.sorted))
}

// median of a small set of repeated measurements (set-up, recovery).
func median(xs []float64) float64 { return newDist(xs).p50() }

// tally counts the requests a phase attempted and the ones that failed: a
// transport error, a shed (429/503), or any status other than the one the
// operation must return all count as failed.
type tally struct {
	attempted int
	failed    int
}

func (t *tally) record(status, want int, err error) bool {
	t.attempted++
	if err != nil || status != want {
		t.failed++
		return false
	}
	return true
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
}

// errorRate is failed / attempted (0 for an empty tally).
func (t tally) errorRate() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}
