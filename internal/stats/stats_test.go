package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mecache/internal/rng"
)

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Mean != 5 {
		t.Fatalf("summary %+v", s)
	}
	// Sample stddev of this classic set is sqrt(32/7).
	if math.Abs(s.StdDev-math.Sqrt(32.0/7)) > 1e-12 {
		t.Fatalf("stddev %v", s.StdDev)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Fatalf("min/max %v/%v", s.Min, s.Max)
	}
	if s.Median != 4.5 {
		t.Fatalf("median %v", s.Median)
	}
}

func TestSummarizeEdge(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty summary %+v", s)
	}
	s := Summarize([]float64{3})
	if s.Mean != 3 || s.StdDev != 0 || s.Median != 3 || s.CI95() != 0 {
		t.Fatalf("singleton summary %+v", s)
	}
	odd := Summarize([]float64{5, 1, 3})
	if odd.Median != 3 {
		t.Fatalf("odd median %v", odd.Median)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	_ = Summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestCI95Shrinks(t *testing.T) {
	r := rng.New(1)
	small := make([]float64, 10)
	large := make([]float64, 1000)
	for i := range small {
		small[i] = r.FloatRange(0, 1)
	}
	for i := range large {
		large[i] = r.FloatRange(0, 1)
	}
	if Summarize(large).CI95() >= Summarize(small).CI95() {
		t.Fatal("CI95 did not shrink with sample size")
	}
}

func TestWelfordMatchesBatch(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(50)
		xs := make([]float64, n)
		var w Welford
		for i := range xs {
			xs[i] = r.FloatRange(-100, 100)
			w.Add(xs[i])
		}
		batch := Summarize(xs)
		return w.N() == n &&
			math.Abs(w.Mean()-batch.Mean) < 1e-9 &&
			math.Abs(w.StdDev()-batch.StdDev) < 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.StdDev() != 0 || w.N() != 0 {
		t.Fatal("empty Welford not zero")
	}
	s := w.Summary()
	if s.N != 0 {
		t.Fatalf("summary %+v", s)
	}
}

func TestStringFormat(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	if got := s.String(); got == "" {
		t.Fatal("empty string")
	}
}
